// Command perfbench is odpsim's end-to-end benchmark. It runs one named
// workload through the public scenario layer, one child process per
// workload run, and reports host wall time, CPU time, set-up time and
// peak memory, gating every run on byte-identical output. With --trace 1
// it also profiles the runs and folds the profiles into per-layer host
// time. See README.md in this directory.
//
//	bash perfbench/run.sh --workload storm --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh record [workload...]
//	bash perfbench/run.sh compare OLD.json NEW.json
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	procs := runtime.NumCPU()
	if len(args) > 0 {
		switch args[0] {
		case "child":
			return childMain(args[1:])
		case "record":
			names := args[1:]
			if len(names) == 0 {
				for _, w := range workloads {
					names = append(names, w.name)
				}
			}
			return record(names, procs)
		case "compare":
			if len(args) != 3 {
				return fmt.Errorf("compare needs two artifact files")
			}
			out, err := compare(args[1], args[2])
			fmt.Print(out)
			return err
		}
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 30, "measurement length in seconds")
	trace := fs.Int("trace", 0, "1 profiles the runs and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	return benchmark(w, *seed, *seconds, *trace == 1, procs)
}
