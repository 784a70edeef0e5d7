// Contract tests for the bounded-lag shard layer (internal/shard,
// DESIGN.md §12): sharded execution is a pure throughput knob. The same
// scenario must produce byte-identical output at every `-shards` value —
// including against the committed goldens, which were recorded through
// the ordinary sequential path — and the cross-shard handoff must stay
// on the warm zero-allocation contract the rest of the datapath obeys.
package odpsim

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"odpsim/internal/benchkit"
	"odpsim/internal/scenario"
	_ "odpsim/internal/scenario/paper"
)

// TestShardedByteIdentical runs the sharded scenarios at shards 1, 2 and
// 4 and requires each run to match the committed golden byte for byte.
// The collective patterns are fully coupled (one causal domain), so the
// lanes are pure overhead there; kv-serve actually fans its 16 pods
// across the lanes — either way the bytes must not move.
func TestShardedByteIdentical(t *testing.T) {
	for _, name := range []string{"incast-clos", "shuffle-clos", "kv-serve"} {
		golden, err := os.ReadFile(filepath.Join("results", name+".txt"))
		if err != nil {
			t.Fatalf("missing golden: %v", err)
		}
		for _, shards := range []int{1, 2, 4} {
			sc, err := scenario.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			sc.Shards = shards
			var buf bytes.Buffer
			if err := scenario.Run(sc, &buf, scenario.Options{}); err != nil {
				t.Fatalf("%s shards=%d: %v", name, shards, err)
			}
			if !bytes.Equal(buf.Bytes(), golden) {
				t.Errorf("%s at shards=%d differs from results/%s.txt — sharding changed the simulation",
					name, shards, name)
			}
		}
	}
}

// shardedAllocCeiling bounds the warm per-trial allocation count for a
// two-pod sharded trial: twice the single-fabric congested ceiling, plus
// the per-pod rebuild closures. The cross-shard handoff itself (rings,
// inbox, merge scratch) must contribute zero — that is the part this
// guard watches.
const shardedAllocCeiling = 2*congestedAllocCeiling + 8

func TestAllocBudgetShardedSend(t *testing.T) {
	sf := benchkit.NewSharded(2, 1)
	seed := int64(0)
	trial := func() {
		seed += 16
		sf.Trial(seed, 4096)
	}
	trial() // warm the arenas and the handoff rings
	wantDigests := sf.Digests()
	if wantDigests == 0 {
		t.Fatal("no digest flights crossed the shard boundary — the trial is not exercising the handoff")
	}

	avg := testing.AllocsPerRun(10, trial)
	t.Logf("sharded two-pod trial allocates %.0f/op (ceiling %d), %d digests crossed", avg, shardedAllocCeiling, sf.Digests())
	if avg > shardedAllocCeiling {
		t.Errorf("sharded trial allocates %.0f/op, ceiling %d — the cross-shard handoff path regressed off the warm-allocation contract",
			avg, shardedAllocCeiling)
	}
	if sf.Digests() != wantDigests {
		t.Errorf("digest count drifted across warm trials: %d vs %d", sf.Digests(), wantDigests)
	}
}
