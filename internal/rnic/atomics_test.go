package rnic

import (
	"testing"

	"odpsim/internal/packet"
	"odpsim/internal/sim"
)

func TestFetchAddBasics(t *testing.T) {
	for _, tr := range transports {
		t.Run(string(tr), func(t *testing.T) {
			h := newHarness(t, tr, 30, ConnectX4(), noODP, defaultParams())
			h.server.AS.WriteWord(h.rbuf, 40)
			h.qpC.PostSend(SendWR{ID: 1, Op: OpAtomicFA, LocalAddr: h.lbuf, RemoteAddr: h.rbuf, Len: 8, CompareAdd: 2})
			h.eng.Run()
			cqes := h.cqC.Poll(0)
			if len(cqes) != 1 || cqes[0].Status != WCSuccess {
				t.Fatalf("cqes = %+v", cqes)
			}
			if cqes[0].AtomicOrig != 40 {
				t.Errorf("AtomicOrig = %d, want 40", cqes[0].AtomicOrig)
			}
			if got := h.server.AS.ReadWord(h.rbuf); got != 42 {
				t.Errorf("word = %d, want 42", got)
			}
		})
	}
}

func TestCmpSwap(t *testing.T) {
	for _, tr := range transports {
		t.Run(string(tr), func(t *testing.T) {
			h := newHarness(t, tr, 31, ConnectX4(), noODP, defaultParams())
			h.server.AS.WriteWord(h.rbuf, 7)
			// Matching compare: swaps.
			h.qpC.PostSend(SendWR{ID: 1, Op: OpAtomicCS, LocalAddr: h.lbuf, RemoteAddr: h.rbuf, Len: 8, CompareAdd: 7, Swap: 99})
			h.eng.Run()
			if got := h.server.AS.ReadWord(h.rbuf); got != 99 {
				t.Fatalf("word = %d, want 99", got)
			}
			// Non-matching compare: no swap, returns current value.
			h.qpC.PostSend(SendWR{ID: 2, Op: OpAtomicCS, LocalAddr: h.lbuf, RemoteAddr: h.rbuf, Len: 8, CompareAdd: 7, Swap: 1})
			h.eng.Run()
			cqes := h.cqC.Poll(0)
			last := cqes[len(cqes)-1]
			if last.AtomicOrig != 99 {
				t.Errorf("AtomicOrig = %d, want 99", last.AtomicOrig)
			}
			if got := h.server.AS.ReadWord(h.rbuf); got != 99 {
				t.Errorf("failed CAS must not write, word = %d", got)
			}
		})
	}
}

func TestAtomicSequence(t *testing.T) {
	h := newHarness(t, goBackN, 32, ConnectX4(), noODP, defaultParams())
	for i := 0; i < 50; i++ {
		h.qpC.PostSend(SendWR{ID: uint64(i), Op: OpAtomicFA, LocalAddr: h.lbuf, RemoteAddr: h.rbuf, Len: 8, CompareAdd: 1})
	}
	h.eng.Run()
	if got := h.server.AS.ReadWord(h.rbuf); got != 50 {
		t.Errorf("word = %d, want 50", got)
	}
	if n := h.cqC.Poll(0); len(n) != 50 {
		t.Errorf("completions = %d", len(n))
	}
}

func TestAtomicODPFaultsLikeRead(t *testing.T) {
	h := newHarness(t, goBackN, 33, ConnectX4(), serverODP, defaultParams())
	h.qpC.PostSend(SendWR{ID: 1, Op: OpAtomicFA, LocalAddr: h.lbuf, RemoteAddr: h.rbuf, Len: 8, CompareAdd: 5})
	h.eng.Run()
	cqes := h.cqC.Poll(0)
	if len(cqes) != 1 || cqes[0].Status != WCSuccess {
		t.Fatalf("cqes = %+v", cqes)
	}
	if h.server.RNRNakSent == 0 {
		t.Error("atomic into an unmapped ODP page must RNR NAK")
	}
	if got := h.server.AS.ReadWord(h.rbuf); got != 5 {
		t.Errorf("word = %d, want 5", got)
	}
	// ≈ one RNR wait.
	if h.eng.Now() < sim.FromMillis(4) || h.eng.Now() > sim.FromMillis(5.5) {
		t.Errorf("took %v", h.eng.Now())
	}
}

func TestAtomicDuplicateNotReExecuted(t *testing.T) {
	for _, tr := range transports {
		t.Run(string(tr), func(t *testing.T) {
			// Drop the first atomic *response*: the retransmitted request must
			// be answered from the replay cache, not re-executed (otherwise the
			// add would apply twice).
			h := newHarness(t, tr, 34, ConnectX4(), noODP, defaultParams())
			dropped := false
			h.fab.SetDropFilter(func(pkt *packet.Packet) bool {
				if !dropped && pkt.Opcode == packet.OpAtomicResp {
					dropped = true
					return true
				}
				return false
			})
			h.qpC.PostSend(SendWR{ID: 1, Op: OpAtomicFA, LocalAddr: h.lbuf, RemoteAddr: h.rbuf, Len: 8, CompareAdd: 10})
			h.eng.Run()
			cqes := h.cqC.Poll(0)
			if len(cqes) != 1 || cqes[0].Status != WCSuccess {
				t.Fatalf("cqes = %+v", cqes)
			}
			if cqes[0].AtomicOrig != 0 {
				t.Errorf("AtomicOrig = %d, want the original 0", cqes[0].AtomicOrig)
			}
			if got := h.server.AS.ReadWord(h.rbuf); got != 10 {
				t.Errorf("word = %d, want exactly 10 (no double execution)", got)
			}
			if h.qpC.Stats.Timeouts != 1 {
				t.Errorf("Timeouts = %d, want 1 (response was lost)", h.qpC.Stats.Timeouts)
			}
		})
	}
}

func TestAtomicsShareRdAtomicBudget(t *testing.T) {
	p := defaultParams()
	p.MaxRdAtomic = 2
	h := newHarness(t, goBackN, 35, ConnectX4(), noODP, p)
	for i := 0; i < 3; i++ {
		h.qpC.PostSend(SendWR{ID: uint64(i), Op: OpAtomicFA, LocalAddr: h.lbuf, RemoteAddr: h.rbuf, Len: 8, CompareAdd: 1})
	}
	if h.qpC.OutstandingReads() > 2 {
		t.Errorf("outstanding = %d, want ≤ 2", h.qpC.OutstandingReads())
	}
	h.eng.Run()
	if got := h.server.AS.ReadWord(h.rbuf); got != 3 {
		t.Errorf("word = %d", got)
	}
}

func TestAtomicToUnregisteredFails(t *testing.T) {
	h := newHarness(t, goBackN, 36, ConnectX4(), noODP, defaultParams())
	bad := h.server.AS.Alloc(4096)
	h.qpC.PostSend(SendWR{ID: 1, Op: OpAtomicCS, LocalAddr: h.lbuf, RemoteAddr: bad, Len: 8})
	h.eng.Run()
	cqes := h.cqC.Poll(0)
	if len(cqes) != 1 || cqes[0].Status != WCRemoteAccessErr {
		t.Fatalf("cqes = %+v", cqes)
	}
}

func TestAdviseMRPrefetchAvoidsFault(t *testing.T) {
	h := newHarness(t, goBackN, 37, ConnectX4(), serverODP, defaultParams())
	// Prefetch the remote region into the server QP's context before
	// issuing the READ: no RNR NAK, microsecond-scale completion.
	h.server.AdviseMR(h.qpS.Num, h.rbuf, 4096)
	h.eng.Run() // let the pipeline finish the prefetch
	prefetchDone := h.eng.Now()
	h.qpC.PostSend(SendWR{ID: 1, Op: OpRead, LocalAddr: h.lbuf, RemoteAddr: h.rbuf, Len: 100})
	h.eng.Run()
	if h.server.RNRNakSent != 0 {
		t.Error("prefetched page must not fault")
	}
	if lat := h.eng.Now() - prefetchDone; lat > 20*sim.Microsecond {
		t.Errorf("READ after prefetch took %v", lat)
	}
	if n := h.cqC.Poll(0); len(n) != 1 || n[0].Status != WCSuccess {
		t.Fatalf("cqes = %+v", n)
	}
}
