// Alloc-budget guard for the congested datapath. The switched-fabric
// stage is on the same zero-allocation ownership contract as the analytic
// datapath (DESIGN.md §8–§9): entries, VL rings, ports, switches, rate
// states and delivery lines are all recycled through engine-generation
// arenas, so a warm trial — rebuild the two-switch topology, run a
// 4096-packet PFC-paused burst to completion — stays within a handful of
// allocations (down from ~12,450 before the pooling work landed). Each
// trial is the internal/benchkit fixture the matching benchmark runs.
package odpsim

import (
	"testing"

	"odpsim/internal/benchkit"
	"odpsim/internal/sim"
)

// congestedAllocCeiling bounds the warm-trial allocation count for the
// BenchmarkCongestedSend loop body. The measured warm figure is ~4
// (telemetry registration method values); the ceiling leaves headroom
// for allocator noise, not for growth — investigate anything above
// single digits.
const congestedAllocCeiling = 32

func TestAllocBudgetCongestedSend(t *testing.T) {
	eng := sim.New(1)
	seed := int64(0)
	trial := func() {
		seed++
		benchkit.ChainBurst(eng, seed, 4096)
	}
	trial() // first trial warms the arenas

	avg := testing.AllocsPerRun(10, trial)
	t.Logf("congested send→deliver trial allocates %.0f/op (ceiling %d)", avg, congestedAllocCeiling)
	if avg > congestedAllocCeiling {
		t.Errorf("congested trial allocates %.0f/op, ceiling %d — the switched datapath regressed off the warm-allocation contract",
			avg, congestedAllocCeiling)
	}
}

// closAllocCeiling bounds the warm-trial allocation count when the
// rebuilt fabric is a leaf-spine Clos instead of the chain: the graph is
// bigger (6 switches, 16 links, per-switch CSR routing tables), but the
// arenas, egress slices and table backing arrays all recycle across
// Reset, so a warm trial must stay as flat as the chain's.
const closAllocCeiling = 32

func TestAllocBudgetClosSend(t *testing.T) {
	clos := benchkit.NewClosBurst()
	eng := sim.New(1)
	seed := int64(0)
	trial := func() {
		seed++
		clos.Run(eng, seed, 4096)
	}
	trial() // first trial warms the arenas (incl. CSR routing tables)

	avg := testing.AllocsPerRun(10, trial)
	t.Logf("clos send→deliver trial allocates %.0f/op (ceiling %d)", avg, closAllocCeiling)
	if avg > closAllocCeiling {
		t.Errorf("clos trial allocates %.0f/op, ceiling %d — graph rebuild or ECMP routing left the warm-allocation contract",
			avg, closAllocCeiling)
	}
}

// irnAllocCeiling bounds the warm-trial allocation count for the IRN
// selective-repeat send path. The trial rebuilds a two-node IRN cluster
// on a Reset-reused engine and floods 256 pinned-memory WRITEs over a
// 10%-lossy fabric, so SACK frames, reorder-buffer stashes and
// single-PSN retransmits are all on the measured path. The measured warm
// figure is ~892: ~818 is the cluster rebuild itself (RNIC structs, MR
// tables, CQs and QPs — fixed per rebuild, identical under the rc
// transport) and the IRN delta is ~74 fixed per-node telemetry
// registration. The figure is identical at 0% and 10% loss: the per-QP
// State comes from the irn.StateFor engine-generation arena and the
// SACK/stash/retransmit datapath allocates nothing per packet, which is
// the contract this ceiling pins — any per-packet or per-SACK allocation
// would add ≥256 and blow straight through it.
const irnAllocCeiling = 960

func TestAllocBudgetIRNSend(t *testing.T) {
	irn := benchkit.NewIRNCluster()
	eng := sim.New(1)
	trial := func() {
		const n = 256
		if got := len(irn.Trial(eng, 7, n).Poll(0)); got != n {
			t.Fatalf("completed %d/%d WRITEs", got, n)
		}
	}
	trial() // first trial warms the arenas (incl. the IRN state arena)

	avg := testing.AllocsPerRun(10, trial)
	t.Logf("irn send trial allocates %.0f/op (ceiling %d)", avg, irnAllocCeiling)
	if avg > irnAllocCeiling {
		t.Errorf("irn trial allocates %.0f/op, ceiling %d — the selective-repeat path regressed off the warm-allocation contract",
			avg, irnAllocCeiling)
	}
}
