package telemetry

import (
	"strconv"
	"testing"

	"odpsim/internal/sim"
)

// TestAllocBudgetRecycledRegistry pins the warm cost of rebuilding a
// per-QP registry on a Reset-reused engine: 1000 QPs of 8 counters each,
// registered through one reused Labels map, then one Hub snapshot. The
// recycled registry keeps its metric table, label index and render
// scratch, and every label set is already interned, so the only warm
// allocation is the snapshot's sample slice.
func TestAllocBudgetRecycledRegistry(t *testing.T) {
	const qps, perQP = 1000, 8
	names := make([]string, perQP)
	for i := range names {
		names[i] = "qp_counter_" + strconv.Itoa(i)
	}
	qpns := make([]string, qps)
	for i := range qpns {
		qpns[i] = strconv.Itoa(i + 1)
	}
	vals := make([]uint64, qps*perQP)
	eng := sim.New(1)
	l := Labels{"qpn": ""}
	trial := func() {
		eng.Reset(1)
		r := NewRegistryOn(eng, "dev", Labels{"device": "dev"})
		for q, qpn := range qpns {
			l["qpn"] = qpn
			for i, name := range names {
				r.Counter(name, "h", l, &vals[q*perQP+i])
			}
		}
		h := NewHubOn(eng)
		h.Add(r)
		if s := h.Snapshot(0); len(s.Samples) != qps*perQP {
			t.Fatalf("snapshot has %d samples, want %d", len(s.Samples), qps*perQP)
		}
	}
	trial() // first generation builds the registry, index and interned labels

	avg := testing.AllocsPerRun(10, trial)
	t.Logf("recycled registry rebuild + snapshot allocates %.0f/op (ceiling 1)", avg)
	if avg > 1 {
		t.Errorf("recycled registry rebuild + snapshot allocates %.0f/op, ceiling 1 — registration or the snapshot sort left the warm-allocation contract", avg)
	}
}
