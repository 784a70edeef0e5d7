package main

import (
	"flag"
	"io"
	"path/filepath"
	"slices"
	"testing"
)

// runFlags is a cut-down `run` flag set: one string flag and one bool
// flag are all reorder distinguishes.
func runFlags() (*flag.FlagSet, *string, *bool) {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs, fs.String("o", "", ""), fs.Bool("quick", false, "")
}

func TestReorder(t *testing.T) {
	for _, tc := range []struct {
		args      []string
		want      []string
		o         string
		quick     bool
		positions []string
	}{
		{[]string{"fig4", "-o", "d"}, []string{"-o", "d", "fig4"}, "d", false, []string{"fig4"}},
		{[]string{"fig4", "-o=d"}, []string{"-o=d", "fig4"}, "d", false, []string{"fig4"}},
		{[]string{"-quick", "fig4", "fig7"}, []string{"-quick", "fig4", "fig7"}, "", true, []string{"fig4", "fig7"}},
		{[]string{"fig4", "--quick", "-o", "d", "fig7"}, []string{"--quick", "-o", "d", "fig4", "fig7"}, "d", true, []string{"fig4", "fig7"}},
	} {
		fs, o, quick := runFlags()
		got := reorder(fs, tc.args)
		if !slices.Equal(got, tc.want) {
			t.Errorf("reorder(%q) = %q, want %q", tc.args, got, tc.want)
			continue
		}
		if err := fs.Parse(got); err != nil {
			t.Errorf("parse %q: %v", got, err)
			continue
		}
		if *o != tc.o || *quick != tc.quick || !slices.Equal(fs.Args(), tc.positions) {
			t.Errorf("%q: -o %q -quick %v args %q, want %q %v %q",
				tc.args, *o, *quick, fs.Args(), tc.o, tc.quick, tc.positions)
		}
	}
}

func TestReorderUnknownFlag(t *testing.T) {
	fs, _, _ := runFlags()
	args := reorder(fs, []string{"fig4", "-nope", "x"})
	if want := []string{"-nope", "fig4", "x"}; !slices.Equal(args, want) {
		t.Errorf("reorder = %q, want %q (an unknown flag consumes no value)", args, want)
	}
	if err := fs.Parse(args); err == nil {
		t.Error("parsing an unknown flag succeeded")
	}
}

func TestLoad(t *testing.T) {
	sc, err := load("fig4")
	if err != nil || sc.Name != "fig4" {
		t.Errorf(`load("fig4") = %q, %v; want the registry entry`, sc.Name, err)
	}
	spec := filepath.Join("..", "..", "examples", "specs", "damming-bench.json")
	sc, err = load(spec)
	if err != nil || sc.Name != "damming-bench" || sc.Workload != "bench" {
		t.Errorf("load(%q) = %q/%q, %v; want the spec file", spec, sc.Name, sc.Workload, err)
	}
	for _, bad := range []string{"no-such-scenario", "no-such-spec.json"} {
		if _, err := load(bad); err == nil {
			t.Errorf("load(%q) succeeded", bad)
		}
	}
}
