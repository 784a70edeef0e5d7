package main

import (
	"fmt"
	"io"
	"os"
	"sort"
)

// perLayer folds the traced runs' CPU profiles, fills the per-layer
// metrics and writes the folded table to tablePath. A layer's time is its
// share of the profile samples times the mean measured CPU seconds of a
// traced run, so the layers of one run add up to its cpu_s.
func perLayer(m map[string]summary, untraced, traced []childRun, procs int, tablePath string) error {
	f := newFolded()
	var cpu []float64
	for _, r := range traced {
		if !r.ok() {
			continue
		}
		file, err := os.Open(r.profile)
		if err != nil {
			return err
		}
		stacks, err := readProfile(file)
		file.Close()
		if err != nil {
			return fmt.Errorf("%s: %v", r.profile, err)
		}
		for _, s := range stacks {
			f.add(s)
		}
		cpu = append(cpu, r.Result.CPUS)
	}
	perRun := 0.0
	for _, c := range cpu {
		perRun += c / float64(len(cpu))
	}
	share := func(ns int64) summary {
		s := summary{N: len(cpu), Pooled: true}
		if f.total > 0 {
			s.Median = float64(ns) / float64(f.total) * perRun
		}
		return s
	}
	for _, l := range layers {
		m[l+".self_s"] = share(f.self[l])
	}
	m["sim.heap_s"] = share(f.heap)
	for _, ep := range entryPoints {
		m[ep.metric] = share(f.cum[ep.metric])
	}

	var wall, ucpu, gc, alloc, mallocs, cycles, ratio []float64
	for i, r := range untraced {
		if !r.ok() {
			continue
		}
		wall = append(wall, r.Result.WallS)
		ucpu = append(ucpu, r.Result.CPUS)
		gc = append(gc, r.Result.GCS)
		alloc = append(alloc, float64(r.Result.AllocBytes)/(1<<20))
		mallocs = append(mallocs, float64(r.Result.Mallocs))
		cycles = append(cycles, float64(r.Result.GCCycles))
		// Traced run i ran the same seed, so the pair isolates the
		// profiler's cost from the seed's own.
		if i < len(traced) && traced[i].ok() && r.Result.WallS > 0 {
			ratio = append(ratio, traced[i].Result.WallS/r.Result.WallS-1)
		}
	}
	util := summary{N: len(wall), Pooled: true}
	if w := summarize(wall).Median; w > 0 {
		util.Median = summarize(ucpu).Median / (w * float64(procs))
	}
	m["parallel.util"] = util
	m["runtime.gc_s"] = summarize(gc)
	m["runtime.alloc_mb"] = summarize(alloc)
	m["runtime.mallocs"] = summarize(mallocs)
	m["runtime.gc_cycles"] = summarize(cycles)
	m["trace.overhead_frac"] = summarize(ratio)
	return writeLayerTable(tablePath, f, perRun)
}

// writeLayerTable writes the folded profile as a text table: each
// layer's self time and share, then the entry points' cumulative time.
func writeLayerTable(path string, f folded, perRun float64) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	printLayerTable(out, f, perRun)
	return out.Close()
}

func printLayerTable(out io.Writer, f folded, perRun float64) {
	pct := func(ns int64) float64 {
		if f.total == 0 {
			return 0
		}
		return 100 * float64(ns) / float64(f.total)
	}
	sec := func(ns int64) float64 { return pct(ns) / 100 * perRun }
	rows := append([]string(nil), layers...)
	sort.SliceStable(rows, func(i, j int) bool { return f.self[rows[i]] > f.self[rows[j]] })
	fmt.Fprintf(out, "%-22s %10s %7s\n", "layer (self)", "s/run", "share")
	for _, l := range rows {
		fmt.Fprintf(out, "%-22s %10.4f %6.1f%%\n", l, sec(f.self[l]), pct(f.self[l]))
	}
	fmt.Fprintf(out, "\n%-22s %10s %7s\n", "entry point (cum)", "s/run", "share")
	fmt.Fprintf(out, "%-22s %10.4f %6.1f%%\n", "sim.heap_s (self)", sec(f.heap), pct(f.heap))
	for _, ep := range entryPoints {
		fmt.Fprintf(out, "%-22s %10.4f %6.1f%%\n", ep.metric, sec(f.cum[ep.metric]), pct(f.cum[ep.metric]))
	}
}
