package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"

	"odpsim/internal/parallel"
	"odpsim/internal/scenario"
)

// resultFD is the descriptor a child writes its one-line JSON result to;
// the runner passes a pipe there, so nothing a workload prints on stdout
// can corrupt the result.
const resultFD = 3

// childResult is what one child process reports about its run.
type childResult struct {
	// HandoffUnixNs is the wall clock when the resolved scenarios were
	// handed to scenario.Run; the runner subtracts its spawn time.
	HandoffUnixNs int64 `json:"handoff_unix_ns"`
	// WallS and CPUS cover the scenario.Run calls only.
	WallS float64      `json:"wall_s"`
	CPUS  float64      `json:"cpu_s"`
	Parts []partDigest `json:"parts"`
	// Runtime deltas around the scenario.Run calls.
	GCS        float64 `json:"gc_s"`
	AllocBytes uint64  `json:"alloc_bytes"`
	Mallocs    uint64  `json:"mallocs"`
	GCCycles   uint64  `json:"gc_cycles"`
}

// partDigest identifies one part's rendered output.
type partDigest struct {
	Label  string `json:"label"`
	SHA256 string `json:"sha256"`
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
}

// childMain runs one workload execution in this process and reports it
// on resultFD. Exit status is non-zero on any error.
func childMain(args []string) error {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "simulation seed")
	jobs := fs.Int("j", 0, "parallel workers")
	profile := fs.String("profile", "", "write a CPU profile of the run to this file")
	probe := fs.Bool("probe", false, "stop after set-up")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	parallel.SetJobs(*jobs)
	parts, err := w.parts(*seed)
	if err != nil {
		return err
	}
	res := childResult{HandoffUnixNs: time.Now().UnixNano()}
	if !*probe {
		if err := runParts(parts, *profile, &res); err != nil {
			return err
		}
	}
	out := os.NewFile(resultFD, "result")
	if out == nil {
		return fmt.Errorf("no result descriptor")
	}
	if err := json.NewEncoder(out).Encode(res); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

func runParts(parts []part, profile string, res *childResult) (err error) {
	if profile != "" {
		f, ferr := os.Create(profile)
		if ferr != nil {
			return ferr
		}
		if ferr := pprof.StartCPUProfile(f); ferr != nil {
			f.Close()
			return ferr
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
	}
	before := make([]metrics.Sample, len(runtimeSamples))
	after := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		before[i].Name, after[i].Name = n, n
	}
	var ru0, ru1 syscall.Rusage
	metrics.Read(before)
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru0); err != nil {
		return err
	}
	start := time.Now()
	for _, p := range parts {
		h := sha256.New()
		if err := scenario.Run(p.sc, h, scenario.Options{}); err != nil {
			return fmt.Errorf("%s: %v", p.label, err)
		}
		res.Parts = append(res.Parts, partDigest{Label: p.label, SHA256: hex.EncodeToString(h.Sum(nil))})
	}
	res.WallS = time.Since(start).Seconds()
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru1); err != nil {
		return err
	}
	metrics.Read(after)
	res.CPUS = cpuSeconds(ru1) - cpuSeconds(ru0)
	res.GCS = after[0].Value.Float64() - before[0].Value.Float64()
	res.AllocBytes = after[1].Value.Uint64() - before[1].Value.Uint64()
	res.Mallocs = after[2].Value.Uint64() - before[2].Value.Uint64()
	res.GCCycles = after[3].Value.Uint64() - before[3].Value.Uint64()
	return nil
}

func cpuSeconds(ru syscall.Rusage) float64 {
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
