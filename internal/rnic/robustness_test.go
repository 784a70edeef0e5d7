package rnic

import (
	"testing"

	"odpsim/internal/fabric"
	"odpsim/internal/hostmem"
	"odpsim/internal/sim"
)

// TestReliabilityUnderRandomLoss is the core RC guarantee: with a
// retransmission budget, every operation completes exactly once despite
// random packet loss, in order.
func TestReliabilityUnderRandomLoss(t *testing.T) {
	for _, loss := range []float64{0.01, 0.05, 0.2} {
		for seed := int64(0); seed < 3; seed++ {
			p := defaultParams()
			p.RetryCount = 7
			h := newHarness(t, goBackN, 100+seed, ConnectX4(), noODP, p)
			h.fab.SetLossRate(loss)
			const n = 40
			for i := 0; i < n; i++ {
				op := OpRead
				if i%3 == 1 {
					op = OpWrite
				}
				off := hostmem.Addr(i % (bufPages * hostmem.PageSize / 128) * 128)
				h.qpC.PostSend(SendWR{ID: uint64(i), Op: op, LocalAddr: h.lbuf + off, RemoteAddr: h.rbuf + off, Len: 64})
			}
			h.eng.Run()
			cqes := h.cqC.Poll(0)
			if len(cqes) != n {
				t.Fatalf("loss=%v seed=%d: %d/%d completions", loss, seed, len(cqes), n)
			}
			seen := map[uint64]bool{}
			for _, e := range cqes {
				if e.Status != WCSuccess {
					t.Fatalf("loss=%v seed=%d: completion %d failed: %s", loss, seed, e.WRID, e.Status)
				}
				if seen[e.WRID] {
					t.Fatalf("duplicate completion for WR %d", e.WRID)
				}
				seen[e.WRID] = true
			}
		}
	}
}

// TestCompletionOrderPreserved: RC delivers completions in posting order
// on one QP, regardless of retransmissions.
func TestCompletionOrderPreserved(t *testing.T) {
	p := defaultParams()
	h := newHarness(t, goBackN, 200, ConnectX4(), noODP, p)
	h.fab.SetLossRate(0.1)
	const n = 30
	for i := 0; i < n; i++ {
		h.qpC.PostSend(SendWR{ID: uint64(i), Op: OpRead, LocalAddr: h.lbuf, RemoteAddr: h.rbuf, Len: 32})
	}
	h.eng.Run()
	cqes := h.cqC.Poll(0)
	if len(cqes) != n {
		t.Fatalf("%d completions", len(cqes))
	}
	for i, e := range cqes {
		if e.WRID != uint64(i) {
			t.Fatalf("completion %d has WRID %d (out of order)", i, e.WRID)
		}
	}
}

// TestODPUnderRandomLoss combines both failure sources: ODP faults plus
// random loss; reliability must still hold.
func TestODPUnderRandomLoss(t *testing.T) {
	p := defaultParams()
	h := newHarness(t, goBackN, 300, ConnectX4(), bothODP, p)
	h.fab.SetLossRate(0.05)
	const n = 16
	for i := 0; i < n; i++ {
		off := hostmem.Addr(i * 256)
		h.qpC.PostSend(SendWR{ID: uint64(i), Op: OpRead, LocalAddr: h.lbuf + off, RemoteAddr: h.rbuf + off, Len: 128})
	}
	h.eng.Run()
	cqes := h.cqC.Poll(0)
	ok := 0
	for _, e := range cqes {
		if e.Status == WCSuccess {
			ok++
		}
	}
	if ok != n {
		t.Fatalf("%d/%d succeeded: %+v", ok, n, cqes)
	}
}

// TestDeterminismUnderLoss: identical seeds give identical packet counts
// even with random loss and ODP.
func TestDeterminismUnderLoss(t *testing.T) {
	run := func() (uint64, sim.Time) {
		h := newHarness(t, goBackN, 400, ConnectX4(), bothODP, defaultParams())
		h.fab.SetLossRate(0.1)
		for i := 0; i < 10; i++ {
			h.qpC.PostSend(SendWR{ID: uint64(i), Op: OpRead, LocalAddr: h.lbuf, RemoteAddr: h.rbuf, Len: 64})
		}
		h.eng.Run()
		return h.fab.Sent, h.eng.Now()
	}
	s1, t1 := run()
	s2, t2 := run()
	if s1 != s2 || t1 != t2 {
		t.Errorf("non-deterministic: (%d,%v) vs (%d,%v)", s1, t1, s2, t2)
	}
}

// TestManyNodesStar: one client talking to several servers concurrently
// over separate QPs; fabric routing and per-QP state must not interfere.
func TestManyNodesStar(t *testing.T) {
	eng := sim.New(500)
	fab := fabric.New(eng, fabric.DefaultConfig())
	const servers = 5
	client := New(fab, 1, "client", ConnectX4(), hostmem.DefaultConfig())
	cq := NewCQ(eng)
	lbuf := client.AS.Alloc(servers * hostmem.PageSize)
	client.RegisterMR(lbuf, servers*hostmem.PageSize)

	for s := 0; s < servers; s++ {
		srv := New(fab, uint16(2+s), "server", ConnectX4(), hostmem.DefaultConfig())
		rbuf := srv.AS.Alloc(hostmem.PageSize)
		srv.RegisterMR(rbuf, hostmem.PageSize)
		scq := NewCQ(eng)
		qc := client.CreateQP(cq, cq)
		qs := srv.CreateQP(scq, scq)
		ConnectPair(qc, qs, defaultParams(), defaultParams())
		for i := 0; i < 4; i++ {
			qc.PostSend(SendWR{ID: uint64(s*100 + i), Op: OpRead,
				LocalAddr: lbuf + hostmem.Addr(s)*hostmem.PageSize, RemoteAddr: rbuf, Len: 64})
		}
	}
	eng.Run()
	cqes := cq.Poll(0)
	if len(cqes) != servers*4 {
		t.Fatalf("completions = %d, want %d", len(cqes), servers*4)
	}
	for _, e := range cqes {
		if e.Status != WCSuccess {
			t.Fatalf("failed: %+v", e)
		}
	}
}

// TestInvalidationMidTraffic: releasing pages under an active ODP MR
// invalidates translations; subsequent READs re-fault and succeed.
func TestInvalidationMidTraffic(t *testing.T) {
	h := newHarness(t, goBackN, 600, ConnectX4(), serverODP, defaultParams())
	h.qpC.PostSend(SendWR{ID: 1, Op: OpRead, LocalAddr: h.lbuf, RemoteAddr: h.rbuf, Len: 64})
	h.eng.Run()
	if len(h.cqC.Poll(0)) != 1 {
		t.Fatal("first READ failed")
	}
	faultsBefore := h.server.AS.FaultsResolved

	// The kernel reclaims the page (memory pressure).
	h.server.AS.Release(h.rbuf, hostmem.PageSize)

	h.qpC.PostSend(SendWR{ID: 2, Op: OpRead, LocalAddr: h.lbuf, RemoteAddr: h.rbuf, Len: 64})
	h.eng.Run()
	cqes := h.cqC.Poll(0)
	if len(cqes) != 1 || cqes[0].Status != WCSuccess {
		t.Fatalf("post-invalidation READ: %+v", cqes)
	}
	if h.server.AS.FaultsResolved <= faultsBefore {
		t.Error("the invalidated page must fault again")
	}
}

// TestBackToBackBidirectional: both sides issue READs to each other on the
// same QP pair simultaneously (each QP is requester and responder at
// once).
func TestBackToBackBidirectional(t *testing.T) {
	h := newHarness(t, goBackN, 700, ConnectX4(), noODP, defaultParams())
	// Register reverse-direction MRs.
	h.client.RegisterMR(h.lbuf+4*hostmem.PageSize, hostmem.PageSize)
	for i := 0; i < 10; i++ {
		h.qpC.PostSend(SendWR{ID: uint64(i), Op: OpRead, LocalAddr: h.lbuf, RemoteAddr: h.rbuf, Len: 64})
		h.qpS.PostSend(SendWR{ID: uint64(100 + i), Op: OpRead, LocalAddr: h.rbuf, RemoteAddr: h.lbuf + 4*hostmem.PageSize, Len: 64})
	}
	h.eng.Run()
	if n := h.cqC.Poll(0); len(n) != 10 {
		t.Errorf("client completions = %d", len(n))
	}
	if n := h.cqS.Poll(0); len(n) != 10 {
		t.Errorf("server completions = %d", len(n))
	}
}
