package paper

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"odpsim/internal/scenario"
)

// TestRegistryMatchesExperiments checks the registry against the repo
// docs both ways: every `odpsim run` argument quoted in EXPERIMENTS.md —
// a registry name or a JSON spec path relative to the repo root — must
// load, and every golden in results/ must be a registered scenario's
// output file.
func TestRegistryMatchesExperiments(t *testing.T) {
	root := filepath.Join("..", "..", "..")
	data, err := os.ReadFile(filepath.Join(root, "EXPERIMENTS.md"))
	if err != nil {
		t.Fatalf("EXPERIMENTS.md: %v", err)
	}
	// A quoted command runs to the closing backquote or the line end.
	re := regexp.MustCompile("odpsim run ([^`\n]*)")
	quoted := map[string]bool{}
	for _, m := range re.FindAllStringSubmatch(string(data), -1) {
		args := strings.Fields(m[1])
		for i := 0; i < len(args); i++ {
			switch arg := args[i]; {
			case strings.HasPrefix(arg, "-"):
				// Every run flag but these booleans takes a value.
				switch strings.TrimLeft(arg, "-") {
				case "all", "quick", "short", "analyze":
				default:
					i++
				}
			case strings.Contains(arg, "<"): // a placeholder such as <name>
			default:
				quoted[arg] = true
			}
		}
	}
	if len(quoted) < 10 {
		t.Fatalf("EXPERIMENTS.md quotes only %d `odpsim run` commands — regex or docs drifted", len(quoted))
	}
	for arg := range quoted {
		var err error
		if scenario.IsSpecPath(arg) {
			_, err = scenario.LoadSpecFile(filepath.Join(root, arg))
		} else {
			_, err = scenario.Lookup(arg)
		}
		if err != nil {
			t.Errorf("EXPERIMENTS.md references %q: %v", arg, err)
		}
	}

	registered := map[string]bool{}
	for _, name := range scenario.Names() {
		registered[name] = true
	}
	goldens, err := filepath.Glob(filepath.Join(root, "results", "*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(goldens) == 0 {
		t.Fatal("no goldens under results/")
	}
	for _, g := range goldens {
		name := filepath.Base(g)
		name = name[:len(name)-len(".txt")]
		if !registered[name] {
			t.Errorf("results/%s.txt has no registered scenario", name)
		}
	}
}

// TestRegistryWellFormed validates every registered scenario eagerly:
// scenario-level Validate, workload-level Validate, and the quick
// profile's validity too (ApplyQuick must not produce a broken grid).
func TestRegistryWellFormed(t *testing.T) {
	names := scenario.Names()
	if len(names) < 14 {
		t.Fatalf("registry has %d scenarios, want the full paper set", len(names))
	}
	for _, name := range names {
		sc, err := scenario.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if sc.Title == "" {
			t.Errorf("%s: no title", name)
		}
		for _, variant := range []scenario.Scenario{sc, sc.ApplyQuick()} {
			if err := variant.Validate(); err != nil {
				t.Errorf("%s: %v", name, err)
				continue
			}
			w, _ := scenario.LookupWorkload(variant.Workload)
			if err := w.Validate(&variant); err != nil {
				t.Errorf("%s (workload): %v", name, err)
			}
		}
	}
}

// TestQuickRunsDeterministic runs every non-Slow scenario twice at quick
// fidelity and requires byte-identical output — the same contract the CI
// freshness check enforces at full fidelity against results/.
func TestQuickRunsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("quick runs take a few seconds each")
	}
	for _, name := range scenario.Names() {
		sc, err := scenario.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if sc.Slow {
			continue // fig9 and tab13 are minutes even quick-ish; covered by Validate above
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var a, b bytes.Buffer
			if err := scenario.RunNamed(name, &a, scenario.Options{Quick: true}); err != nil {
				t.Fatalf("run 1: %v", err)
			}
			if err := scenario.RunNamed(name, &b, scenario.Options{Quick: true}); err != nil {
				t.Fatalf("run 2: %v", err)
			}
			if a.Len() == 0 {
				t.Fatal("empty output")
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Errorf("two quick runs differ:\n--- first\n%s\n--- second\n%s", a.String(), b.String())
			}
		})
	}
}

// TestSpecFileEndToEnd is the acceptance scenario from the issue: a user
// JSON spec — ConnectX-5 hardware, 1% packet loss, congestion on — runs
// through `odpsim run <spec.json>` machinery without any Go code.
func TestSpecFileEndToEnd(t *testing.T) {
	spec := []byte(`{
  "name": "lossy-cx5-kv",
  "title": "KV store on Azure VM HC, 1% loss, congestion modeled",
  "workload": "kvstore",
  "system": "Azure VM HC",
  "ops": 200,
  "seed": 7,
  "faults": {"loss_rate": 0.01, "congestion": true}
}
`)
	path := filepath.Join(t.TempDir(), "lossy.json")
	if err := os.WriteFile(path, spec, 0o644); err != nil {
		t.Fatal(err)
	}
	sc, err := scenario.LoadSpecFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := scenario.Run(sc, &a, scenario.Options{}); err != nil {
		t.Fatalf("spec run: %v", err)
	}
	if err := scenario.Run(sc, &b, scenario.Options{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("spec run is not deterministic")
	}
	if !bytes.Contains(a.Bytes(), []byte("dropped")) {
		t.Errorf("lossy run should report fabric drops:\n%s", a.String())
	}
	// The same spec must also survive a save/load round trip.
	out, err := scenario.SaveSpec(sc)
	if err != nil {
		t.Fatal(err)
	}
	again, err := scenario.LoadSpec(out)
	if err != nil {
		t.Fatalf("re-load of saved spec: %v\n%s", err, out)
	}
	var c bytes.Buffer
	if err := scenario.Run(again, &c, scenario.Options{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Error("round-tripped spec ran differently")
	}
}

// TestExampleSpecs loads every spec under examples/specs and runs it at
// quick fidelity. A spec that carries a registered name must be that
// registry entry exactly, so the examples cannot drift from the code.
func TestExampleSpecs(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "..", "examples", "specs", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no specs under examples/specs")
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			sc, err := scenario.LoadSpecFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if reg, err := scenario.Lookup(sc.Name); err == nil && !reflect.DeepEqual(sc, reg) {
				t.Errorf("%s differs from registry entry %q; regenerate it with `odpsim show %s`", path, sc.Name, sc.Name)
			}
			var out bytes.Buffer
			if err := scenario.Run(sc, &out, scenario.Options{Quick: true}); err != nil {
				t.Fatal(err)
			}
			if out.Len() == 0 {
				t.Error("empty output")
			}
		})
	}
}

// TestGoldenFreshness replays the fast scenarios at full fidelity and
// compares against results/ — a cheap in-tree version of the CI
// freshness step (which runs the slow ones too).
func TestGoldenFreshness(t *testing.T) {
	if testing.Short() {
		t.Skip("full-fidelity runs")
	}
	for _, name := range []string{"fig1-server", "fig1-client", "fig5", "fig8", "perf-compare"} {
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("..", "..", "..", "results", name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := scenario.RunNamed(name, &got, scenario.Options{}); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("results/%s.txt is stale:\n--- golden\n%s\n--- regenerated\n%s", name, want, got.String())
			}
		})
	}
}
