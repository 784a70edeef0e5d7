package main

import (
	_ "embed"
	"fmt"

	"odpsim/internal/scenario"
	_ "odpsim/internal/scenario/paper"
)

// poolSize is the number of simulation seeds each workload draws from.
// Every pool member has a recorded reference digest (refs.json), so every
// run of the benchmark is verified; --seed only chooses which members a
// run draws, and in which order.
const poolSize = 64

//go:embed specs/shuffle.json
var shuffleSpec []byte

// part is one scenario execution inside a workload run, with the
// simulation seed already applied.
type part struct {
	label string
	sc    scenario.Scenario
	// golden names the committed results/<golden>.txt this part must
	// reproduce byte for byte; empty when the part is not a registered
	// scenario at its registered size and seed.
	golden string
}

// workload is one named benchmark input: which scenarios one run
// executes for a given simulation seed.
type workload struct {
	name string
	why  string
	// registered marks scenarios run at their registered size, whose
	// registered seed must reproduce the committed results/ golden.
	registered bool
	// scenarios resolves the run's scenarios (registry lookups or spec
	// loads), without the seed applied.
	scenarios func() ([]scenario.Scenario, error)
}

var workloads = []workload{
	{
		name: "shuffle",
		why:  "Table-13 SparkUCX on the analytic fabric: per-QP path (QP setup, metric registration, event heap, fabric delivery), parallel.Map over trials",
		scenarios: func() ([]scenario.Scenario, error) {
			sc, err := scenario.LoadSpec(shuffleSpec)
			if err != nil {
				return nil, err
			}
			return []scenario.Scenario{sc}, nil
		},
	},
	{
		name:       "storm",
		registered: true,
		why:        "storm-dcqcn WRITE flood over 2 switches with PFC, ECN and DCQCN: timer churn in the event heap and the congestion layer",
		scenarios:  lookup("storm-dcqcn"),
	},
	{
		name:       "kvserve",
		registered: true,
		why:        "kv-serve 1024 GET clients on a 1040-node fat-tree through shard lanes: cluster build, telemetry snapshots, largest memory",
		scenarios:  lookup("kv-serve"),
	},
	{
		name:       "transport",
		registered: true,
		why:        "irn-storm, irn-damming and irn-incast (rc|irn x lossy|lossless x pin|odp|npr): the only workload running the irn and npr code",
		scenarios:  lookup("irn-storm", "irn-damming", "irn-incast"),
	},
}

// lookup resolves registered scenarios at their registered size.
func lookup(names ...string) func() ([]scenario.Scenario, error) {
	return func() ([]scenario.Scenario, error) {
		out := make([]scenario.Scenario, 0, len(names))
		for _, name := range names {
			sc, err := scenario.Lookup(name)
			if err != nil {
				return nil, err
			}
			out = append(out, sc)
		}
		return out, nil
	}
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// parts resolves and validates the scenarios of one run at the given
// simulation seed, in execution order. This is the set-up a run pays
// before its first scenario.Run call.
func (w workload) parts(seed int64) ([]part, error) {
	base, err := w.scenarios()
	if err != nil {
		return nil, err
	}
	out := make([]part, 0, len(base))
	for _, sc := range base {
		registered := sc.SeedOrDefault()
		sc.Seed = seed
		if err := sc.Validate(); err != nil {
			return nil, err
		}
		p := part{label: fmt.Sprintf("%s@%d", sc.Name, seed), sc: sc}
		if w.registered && seed == registered {
			p.golden = sc.Name
		}
		out = append(out, p)
	}
	return out, nil
}

// childSeed returns the pool seed child number child of a run draws. A
// run walks a permutation of the pool fixed by its --seed, so the same
// --seed always gives the same inputs, and a run's children cover the
// pool evenly instead of repeating some seeds and missing others.
func childSeed(runSeed int64, child int) int64 {
	perm := make([]int64, poolSize)
	for i := range perm {
		perm[i] = int64(i) + 1
	}
	x := uint64(runSeed)
	for i := poolSize - 1; i > 0; i-- { // Fisher-Yates on a splitmix64 stream
		x = splitmix64(x)
		j := int(x % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm[child%poolSize]
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}
