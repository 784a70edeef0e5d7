package rnic

import (
	"testing"

	"odpsim/internal/fabric"
	"odpsim/internal/hostmem"
	"odpsim/internal/irn"
	"odpsim/internal/sim"
)

// harness wires a client and a server RNIC across a fabric, with one QP
// pair and a 1-page buffer on each side, in the chosen ODP mode.
type harness struct {
	eng      *sim.Engine
	fab      *fabric.Fabric
	client   *RNIC
	server   *RNIC
	cqC, cqS *CQ
	qpC, qpS *QP
	// lbuf/rbuf are the client-local and server-remote buffers.
	lbuf, rbuf hostmem.Addr
}

type odpMode int

const (
	noODP odpMode = iota
	serverODP
	clientODP
	bothODP
)

const bufPages = 8

// transport selects the RC transport both harness devices run.
type transport string

const (
	goBackN transport = "rc"
	irnSR   transport = "irn" // IRN selective repeat
)

// transports are the inputs of the tests that must hold on either
// transport: the execute path is shared, so both must agree.
var transports = []transport{goBackN, irnSR}

func newHarness(t *testing.T, tr transport, seed int64, prof Profile, mode odpMode, params ConnParams) *harness {
	t.Helper()
	eng := sim.New(seed)
	fab := fabric.New(eng, fabric.DefaultConfig())
	h := &harness{
		eng:    eng,
		fab:    fab,
		client: New(fab, 1, "client", prof, hostmem.DefaultConfig()),
		server: New(fab, 2, "server", prof, hostmem.DefaultConfig()),
	}
	if tr == irnSR {
		h.client.EnableIRN(irn.Config{})
		h.server.EnableIRN(irn.Config{})
	}
	h.cqC = NewCQ(eng)
	h.cqS = NewCQ(eng)
	h.qpC = h.client.CreateQP(h.cqC, h.cqC)
	h.qpS = h.server.CreateQP(h.cqS, h.cqS)
	ConnectPair(h.qpC, h.qpS, params, params)

	h.lbuf = h.client.AS.Alloc(bufPages * hostmem.PageSize)
	h.rbuf = h.server.AS.Alloc(bufPages * hostmem.PageSize)
	if mode == clientODP || mode == bothODP {
		h.client.RegisterODPMR(h.lbuf, bufPages*hostmem.PageSize)
	} else {
		h.client.RegisterMR(h.lbuf, bufPages*hostmem.PageSize)
	}
	if mode == serverODP || mode == bothODP {
		h.server.RegisterODPMR(h.rbuf, bufPages*hostmem.PageSize)
	} else {
		h.server.RegisterMR(h.rbuf, bufPages*hostmem.PageSize)
	}
	return h
}

// defaultParams are the paper's §V settings: C_ACK=1 (clamped to the
// vendor minimum), C_retry=7, minimal RNR NAK delay 1.28 ms.
func defaultParams() ConnParams {
	return ConnParams{CACK: 1, RetryCount: 7, MinRNRDelay: sim.FromMillis(1.28)}
}

func TestReadNoODP(t *testing.T) {
	h := newHarness(t, goBackN, 1, ConnectX4(), noODP, defaultParams())
	h.qpC.PostSend(SendWR{ID: 1, Op: OpRead, LocalAddr: h.lbuf, RemoteAddr: h.rbuf, Len: 100})
	h.eng.Run()
	cqes := h.cqC.Poll(0)
	if len(cqes) != 1 || cqes[0].Status != WCSuccess {
		t.Fatalf("cqes = %+v", cqes)
	}
	// One round trip of a few µs.
	if h.eng.Now() > 10*sim.Microsecond {
		t.Errorf("pinned READ took %v, want a few µs", h.eng.Now())
	}
	if h.server.ReadsExecuted != 1 {
		t.Errorf("ReadsExecuted = %d", h.server.ReadsExecuted)
	}
}

func TestReadServerODPWorkflow(t *testing.T) {
	// Figure 1, left: request → RNR NAK → ≈4.5 ms wait → retransmit →
	// response.
	h := newHarness(t, goBackN, 2, ConnectX4(), serverODP, defaultParams())
	h.qpC.PostSend(SendWR{ID: 1, Op: OpRead, LocalAddr: h.lbuf, RemoteAddr: h.rbuf, Len: 100})
	h.eng.Run()
	cqes := h.cqC.Poll(0)
	if len(cqes) != 1 || cqes[0].Status != WCSuccess {
		t.Fatalf("cqes = %+v", cqes)
	}
	if h.server.RNRNakSent != 1 {
		t.Errorf("RNRNakSent = %d, want 1", h.server.RNRNakSent)
	}
	if h.qpC.Stats.RNRNakReceived != 1 {
		t.Errorf("RNRNakReceived = %d", h.qpC.Stats.RNRNakReceived)
	}
	// Wait ≈ 3.5 × 1.28 ms = 4.48 ms (±5%), plus round trips.
	got := h.eng.Now()
	if got < sim.FromMillis(4.2) || got > sim.FromMillis(4.9) {
		t.Errorf("server-side ODP READ took %v, want ≈4.5 ms", got)
	}
}

func TestReadClientODPWorkflow(t *testing.T) {
	// Figure 1, right: response discarded, blind retransmission every
	// ≈0.5 ms until the page status update lands.
	h := newHarness(t, goBackN, 3, ConnectX4(), clientODP, defaultParams())
	h.qpC.PostSend(SendWR{ID: 1, Op: OpRead, LocalAddr: h.lbuf, RemoteAddr: h.rbuf, Len: 100})
	h.eng.Run()
	cqes := h.cqC.Poll(0)
	if len(cqes) != 1 || cqes[0].Status != WCSuccess {
		t.Fatalf("cqes = %+v", cqes)
	}
	if h.qpC.Stats.ClientFaultRounds == 0 {
		t.Error("expected at least one client fault round")
	}
	if h.qpC.Stats.ResponsesDiscarded == 0 {
		t.Error("expected discarded responses")
	}
	if h.server.ReadsExecuted < 2 {
		t.Errorf("server should re-execute the READ on retransmission, got %d", h.server.ReadsExecuted)
	}
	got := h.eng.Now()
	if got < sim.FromMicros(300) || got > sim.FromMillis(2) {
		t.Errorf("client-side ODP READ took %v, want ≈0.5–1.5 ms", got)
	}
	if h.qpC.Stats.Timeouts != 0 {
		t.Error("no timeout expected for a single READ")
	}
}

func TestTwoReadDammingTimeout(t *testing.T) {
	// Figure 5: a second READ posted 1 ms into the first's pending
	// window is lost and only recovers via the ≈500 ms timeout.
	h := newHarness(t, goBackN, 4, ConnectX4(), serverODP, defaultParams())
	h.qpC.PostSend(SendWR{ID: 1, Op: OpRead, LocalAddr: h.lbuf, RemoteAddr: h.rbuf, Len: 100})
	h.eng.After(sim.Millisecond, func() {
		h.qpC.PostSend(SendWR{ID: 2, Op: OpRead, LocalAddr: h.lbuf + 100, RemoteAddr: h.rbuf + 100, Len: 100})
	})
	h.eng.Run()
	cqes := h.cqC.Poll(0)
	if len(cqes) != 2 {
		t.Fatalf("got %d completions", len(cqes))
	}
	for _, c := range cqes {
		if c.Status != WCSuccess {
			t.Fatalf("completion failed: %+v", c)
		}
	}
	if h.server.DammedDrops == 0 {
		t.Error("expected the quirk to dam the second request")
	}
	if h.qpC.Stats.Timeouts != 1 {
		t.Errorf("Timeouts = %d, want 1", h.qpC.Stats.Timeouts)
	}
	// T_tr(16) = 268 ms, T_o ≈ 1.86× ⇒ ≈500 ms total.
	got := h.eng.Now()
	if got < sim.FromMillis(300) || got > sim.FromMillis(1200) {
		t.Errorf("execution took %v, want several hundred ms", got)
	}
}

func TestTwoReadNoQuirkNoTimeout(t *testing.T) {
	// Ablation / ConnectX-6: without the quirk the same schedule
	// completes right after the RNR wait.
	h := newHarness(t, goBackN, 4, ConnectX6(), serverODP, defaultParams())
	h.qpC.PostSend(SendWR{ID: 1, Op: OpRead, LocalAddr: h.lbuf, RemoteAddr: h.rbuf, Len: 100})
	h.eng.After(sim.Millisecond, func() {
		h.qpC.PostSend(SendWR{ID: 2, Op: OpRead, LocalAddr: h.lbuf + 100, RemoteAddr: h.rbuf + 100, Len: 100})
	})
	h.eng.Run()
	if n := h.cqC.Poll(0); len(n) != 2 {
		t.Fatalf("got %d completions", len(n))
	}
	if h.qpC.Stats.Timeouts != 0 {
		t.Errorf("Timeouts = %d, want 0 on ConnectX-6", h.qpC.Stats.Timeouts)
	}
	if h.eng.Now() > sim.FromMillis(10) {
		t.Errorf("took %v, want ≈5 ms", h.eng.Now())
	}
}

func TestTwoReadOutsideWindowNoTimeout(t *testing.T) {
	// Figure 6a: beyond the ≈4.5 ms pending window, no damming.
	h := newHarness(t, goBackN, 5, ConnectX4(), serverODP, defaultParams())
	h.qpC.PostSend(SendWR{ID: 1, Op: OpRead, LocalAddr: h.lbuf, RemoteAddr: h.rbuf, Len: 100})
	h.eng.After(sim.FromMillis(5.5), func() {
		h.qpC.PostSend(SendWR{ID: 2, Op: OpRead, LocalAddr: h.lbuf + 100, RemoteAddr: h.rbuf + 100, Len: 100})
	})
	h.eng.Run()
	if n := h.cqC.Poll(0); len(n) != 2 {
		t.Fatalf("got %d completions", len(n))
	}
	if h.qpC.Stats.Timeouts != 0 {
		t.Errorf("Timeouts = %d, want 0 outside the window", h.qpC.Stats.Timeouts)
	}
}

func TestTwoReadImmediateNoTimeout(t *testing.T) {
	// Figure 4 at interval ≈ 0: the second request reaches the wire
	// before the RNR NAK arrives, so it is a legitimate retransmission
	// at resume and survives.
	h := newHarness(t, goBackN, 6, ConnectX4(), serverODP, defaultParams())
	h.qpC.PostSend(SendWR{ID: 1, Op: OpRead, LocalAddr: h.lbuf, RemoteAddr: h.rbuf, Len: 100})
	h.qpC.PostSend(SendWR{ID: 2, Op: OpRead, LocalAddr: h.lbuf + 100, RemoteAddr: h.rbuf + 100, Len: 100})
	h.eng.Run()
	if n := h.cqC.Poll(0); len(n) != 2 {
		t.Fatalf("got %d completions", len(n))
	}
	if h.qpC.Stats.Timeouts != 0 {
		t.Errorf("Timeouts = %d, want 0 at interval 0", h.qpC.Stats.Timeouts)
	}
	if h.eng.Now() > sim.FromMillis(10) {
		t.Errorf("took %v", h.eng.Now())
	}
}

func TestThreeReadNakSeqRescue(t *testing.T) {
	// Figure 8: the third READ, posted after the pending window, makes
	// the responder notice the PSN gap and NAK, rescuing the dammed
	// second READ without a timeout.
	h := newHarness(t, goBackN, 7, ConnectX4(), serverODP, defaultParams())
	h.qpC.PostSend(SendWR{ID: 1, Op: OpRead, LocalAddr: h.lbuf, RemoteAddr: h.rbuf, Len: 100})
	h.eng.After(sim.FromMillis(2.5), func() {
		h.qpC.PostSend(SendWR{ID: 2, Op: OpRead, LocalAddr: h.lbuf + 100, RemoteAddr: h.rbuf + 100, Len: 100})
	})
	h.eng.After(sim.FromMillis(5.0), func() {
		h.qpC.PostSend(SendWR{ID: 3, Op: OpRead, LocalAddr: h.lbuf + 200, RemoteAddr: h.rbuf + 200, Len: 100})
	})
	h.eng.Run()
	if n := h.cqC.Poll(0); len(n) != 3 {
		t.Fatalf("got %d completions", len(n))
	}
	if h.server.DammedDrops == 0 {
		t.Error("second READ should have been dammed")
	}
	if h.server.NakSeqSent == 0 {
		t.Error("expected a PSN sequence error NAK")
	}
	if h.qpC.Stats.Timeouts != 0 {
		t.Errorf("Timeouts = %d, want 0 (NAK rescue)", h.qpC.Stats.Timeouts)
	}
	if h.eng.Now() > sim.FromMillis(20) {
		t.Errorf("took %v, want ≈5–6 ms", h.eng.Now())
	}
}

func TestWrongLIDRetryExceeded(t *testing.T) {
	// The Figure 2 experiment: wrong destination LID, C_retry = 7 ⇒
	// 8 timeouts then IBV_WC_RETRY_EXC_ERR; T_o = t/8.
	h := newHarness(t, goBackN, 8, ConnectX4(), noODP, defaultParams())
	h.qpC.Connect(99 /* bogus LID */, h.qpS.Num, defaultParams())
	h.qpC.PostSend(SendWR{ID: 1, Op: OpRead, LocalAddr: h.lbuf, RemoteAddr: h.rbuf, Len: 100})
	h.eng.Run()
	cqes := h.cqC.Poll(0)
	if len(cqes) != 1 || cqes[0].Status != WCRetryExcErr {
		t.Fatalf("cqes = %+v, want IBV_WC_RETRY_EXC_ERR", cqes)
	}
	if h.qpC.State() != QPError {
		t.Error("QP should be in the Error state")
	}
	if h.qpC.Stats.Timeouts != 8 {
		t.Errorf("Timeouts = %d, want 8 (1+C_retry)", h.qpC.Stats.Timeouts)
	}
	// t/8 ≈ T_o ≈ 1.86 × 268 ms ≈ 500 ms.
	to := h.eng.Now() / 8
	if to < sim.FromMillis(400) || to > sim.FromMillis(700) {
		t.Errorf("T_o = %v, want ≈500 ms", to)
	}
}

func TestCACKZeroDisablesTimeout(t *testing.T) {
	p := defaultParams()
	p.CACK = 0
	h := newHarness(t, goBackN, 9, ConnectX4(), noODP, p)
	h.qpC.Connect(99, h.qpS.Num, p)
	h.qpC.PostSend(SendWR{ID: 1, Op: OpRead, LocalAddr: h.lbuf, RemoteAddr: h.rbuf, Len: 100})
	h.eng.RunUntil(10 * sim.Second)
	if len(h.cqC.Poll(0)) != 0 {
		t.Error("with C_ACK=0 the request should hang forever")
	}
	if h.qpC.Stats.Timeouts != 0 {
		t.Error("no timeouts should fire with C_ACK=0")
	}
}

func TestPostToErroredQPFlushes(t *testing.T) {
	h := newHarness(t, goBackN, 10, ConnectX4(), noODP, defaultParams())
	h.qpC.Connect(99, h.qpS.Num, defaultParams())
	h.qpC.PostSend(SendWR{ID: 1, Op: OpRead, LocalAddr: h.lbuf, RemoteAddr: h.rbuf, Len: 100})
	h.eng.Run()
	h.cqC.Poll(0)
	h.qpC.PostSend(SendWR{ID: 2, Op: OpRead, LocalAddr: h.lbuf, RemoteAddr: h.rbuf, Len: 100})
	cqes := h.cqC.Poll(0)
	if len(cqes) != 1 || cqes[0].Status != WCFlushErr {
		t.Fatalf("cqes = %+v, want flush error", cqes)
	}
}

func TestWriteAndSend(t *testing.T) {
	for _, tr := range transports {
		t.Run(string(tr), func(t *testing.T) {
			h := newHarness(t, tr, 11, ConnectX4(), noODP, defaultParams())
			h.qpS.PostRecv(RecvWR{ID: 100, Addr: h.rbuf + 4096, Len: 4096})
			h.qpC.PostSend(SendWR{ID: 1, Op: OpWrite, LocalAddr: h.lbuf, RemoteAddr: h.rbuf, Len: 200})
			h.qpC.PostSend(SendWR{ID: 2, Op: OpSend, LocalAddr: h.lbuf, Len: 64})
			h.eng.Run()
			send := h.cqC.Poll(0)
			if len(send) != 2 || send[0].Status != WCSuccess || send[1].Status != WCSuccess {
				t.Fatalf("send cqes = %+v", send)
			}
			recv := h.cqS.Poll(0)
			if len(recv) != 1 || !recv[0].Recv || recv[0].ByteLen != 64 {
				t.Fatalf("recv cqes = %+v", recv)
			}
		})
	}
}

func TestSendWithoutRecvGetsRNR(t *testing.T) {
	for _, tr := range transports {
		t.Run(string(tr), func(t *testing.T) {
			h := newHarness(t, tr, 12, ConnectX4(), noODP, defaultParams())
			h.qpC.PostSend(SendWR{ID: 1, Op: OpSend, LocalAddr: h.lbuf, Len: 64})
			// Post the receive 2 ms later; the SEND should retry and land.
			h.eng.After(2*sim.Millisecond, func() {
				h.qpS.PostRecv(RecvWR{ID: 100, Addr: h.rbuf, Len: 4096})
			})
			h.eng.Run()
			cqes := h.cqC.Poll(0)
			if len(cqes) != 1 || cqes[0].Status != WCSuccess {
				t.Fatalf("cqes = %+v", cqes)
			}
			if h.qpC.Stats.RNRNakReceived == 0 {
				t.Error("expected a genuine RNR NAK")
			}
			if len(h.cqS.Poll(0)) != 1 {
				t.Error("server should complete the receive")
			}
		})
	}
}

func TestUnregisteredRemoteIsAccessError(t *testing.T) {
	for _, tr := range transports {
		t.Run(string(tr), func(t *testing.T) {
			h := newHarness(t, tr, 13, ConnectX4(), noODP, defaultParams())
			bad := h.server.AS.Alloc(hostmem.PageSize) // never registered
			h.qpC.PostSend(SendWR{ID: 1, Op: OpRead, LocalAddr: h.lbuf, RemoteAddr: bad, Len: 100})
			h.eng.Run()
			cqes := h.cqC.Poll(0)
			if len(cqes) != 1 || cqes[0].Status != WCRemoteAccessErr {
				t.Fatalf("cqes = %+v, want remote access error", cqes)
			}
		})
	}
}

func TestImplicitODPCoversEverything(t *testing.T) {
	h := newHarness(t, goBackN, 14, ConnectX4(), noODP, defaultParams())
	h.server.EnableImplicitODP()
	extra := h.server.AS.Alloc(hostmem.PageSize) // unregistered but implicit
	h.qpC.PostSend(SendWR{ID: 1, Op: OpRead, LocalAddr: h.lbuf, RemoteAddr: extra, Len: 100})
	h.eng.Run()
	cqes := h.cqC.Poll(0)
	if len(cqes) != 1 || cqes[0].Status != WCSuccess {
		t.Fatalf("cqes = %+v", cqes)
	}
	if h.server.RNRNakSent == 0 {
		t.Error("implicit ODP access should have faulted")
	}
}

func TestMultiPacketRead(t *testing.T) {
	for _, tr := range transports {
		t.Run(string(tr), func(t *testing.T) {
			h := newHarness(t, tr, 15, ConnectX4(), noODP, defaultParams())
			const size = 3*4096 + 100 // 4 response packets
			h.qpC.PostSend(SendWR{ID: 1, Op: OpRead, LocalAddr: h.lbuf, RemoteAddr: h.rbuf, Len: size})
			h.eng.Run()
			cqes := h.cqC.Poll(0)
			if len(cqes) != 1 || cqes[0].Status != WCSuccess || cqes[0].ByteLen != size {
				t.Fatalf("cqes = %+v", cqes)
			}
			// PSN space: the READ consumed 4 PSNs.
			h.qpC.PostSend(SendWR{ID: 2, Op: OpSend, LocalAddr: h.lbuf, Len: 8})
			h.qpS.PostRecv(RecvWR{ID: 3, Addr: h.rbuf, Len: 4096})
			h.eng.Run()
			if n := h.cqC.Poll(0); len(n) != 1 || n[0].Status != WCSuccess {
				t.Fatalf("follow-up after multi-packet READ failed: %+v", n)
			}
		})
	}
}

func TestLargeReadSpansBeyondReorderWindow(t *testing.T) {
	// A 100-page READ spans 100 PSNs, more than IRN's 64-PSN reorder
	// window; an idle QP must still admit it.
	const pages = 100
	for _, tr := range transports {
		t.Run(string(tr), func(t *testing.T) {
			h := newHarness(t, tr, 21, ConnectX4(), noODP, defaultParams())
			local := h.client.AS.Alloc(pages * hostmem.PageSize)
			remote := h.server.AS.Alloc(pages * hostmem.PageSize)
			h.client.RegisterMR(local, pages*hostmem.PageSize)
			h.server.RegisterMR(remote, pages*hostmem.PageSize)
			for i := 0; i < 2; i++ {
				h.qpC.PostSend(SendWR{ID: uint64(i), Op: OpRead, LocalAddr: local, RemoteAddr: remote, Len: pages * hostmem.PageSize})
			}
			h.eng.Run()
			cqes := h.cqC.Poll(0)
			if len(cqes) != 2 {
				t.Fatalf("got %d completions, want 2 (bdp stalls %d)", len(cqes), h.client.BdpStalls)
			}
			for _, c := range cqes {
				if c.Status != WCSuccess || c.ByteLen != pages*hostmem.PageSize {
					t.Fatalf("cqe = %+v", c)
				}
			}
		})
	}
}

func TestMaxRdAtomicLimitsOutstanding(t *testing.T) {
	p := defaultParams()
	p.MaxRdAtomic = 2
	h := newHarness(t, goBackN, 16, ConnectX4(), noODP, p)
	for i := 0; i < 5; i++ {
		h.qpC.PostSend(SendWR{ID: uint64(i), Op: OpRead, LocalAddr: h.lbuf, RemoteAddr: h.rbuf, Len: 100})
	}
	if h.qpC.OutstandingReads() > 2 {
		t.Errorf("outstanding reads = %d, want ≤ 2", h.qpC.OutstandingReads())
	}
	h.eng.Run()
	if n := h.cqC.Poll(0); len(n) != 5 {
		t.Fatalf("got %d completions", len(n))
	}
}

func TestPinnedBuffersNeverFault(t *testing.T) {
	h := newHarness(t, goBackN, 17, ConnectX4(), noODP, defaultParams())
	for i := 0; i < 20; i++ {
		h.qpC.PostSend(SendWR{ID: uint64(i), Op: OpRead, LocalAddr: h.lbuf + hostmem.Addr(i*100), RemoteAddr: h.rbuf + hostmem.Addr(i*100), Len: 100})
	}
	h.eng.Run()
	if h.server.RNRNakSent != 0 || h.qpC.Stats.ClientFaultRounds != 0 {
		t.Error("pinned memory must not fault")
	}
	if n := h.cqC.Poll(0); len(n) != 20 {
		t.Fatalf("got %d completions", len(n))
	}
}

func TestBothSideODPTwoReadsTimeout(t *testing.T) {
	// Figure 4's main result at interval 1 ms, both-side ODP.
	h := newHarness(t, goBackN, 18, ConnectX4(), bothODP, defaultParams())
	h.qpC.PostSend(SendWR{ID: 1, Op: OpRead, LocalAddr: h.lbuf, RemoteAddr: h.rbuf, Len: 100})
	h.eng.After(sim.Millisecond, func() {
		h.qpC.PostSend(SendWR{ID: 2, Op: OpRead, LocalAddr: h.lbuf + 100, RemoteAddr: h.rbuf + 100, Len: 100})
	})
	h.eng.Run()
	if n := h.cqC.Poll(0); len(n) != 2 {
		t.Fatalf("got %d completions", len(n))
	}
	if h.qpC.Stats.Timeouts == 0 {
		t.Error("expected a damming timeout")
	}
	got := h.eng.Now()
	if got < sim.FromMillis(300) || got > sim.FromMillis(1500) {
		t.Errorf("execution took %v, want several hundred ms", got)
	}
}

func TestProfileTTr(t *testing.T) {
	p := ConnectX4()
	// Effective exponent is max(1, 16) = 16: 4.096 µs × 2^16 ≈ 268 ms.
	if got := p.TTr(1); got != sim.Time(4096)*sim.Nanosecond<<16 {
		t.Errorf("TTr(1) = %v", got)
	}
	if got := p.TTr(18); got != sim.Time(4096)*sim.Nanosecond<<18 {
		t.Errorf("TTr(18) = %v", got)
	}
	if p.TTr(0) != 0 {
		t.Error("TTr(0) should disable the timeout")
	}
	cx5 := ConnectX5()
	// c0=12: 4.096 µs × 2^12 ≈ 16.8 ms ⇒ T_o floor ≈ 30 ms.
	if got := cx5.TTr(1); got != sim.Time(4096)*sim.Nanosecond<<12 {
		t.Errorf("CX5 TTr(1) = %v", got)
	}
}

func TestDrawTimeoutWithinSpecBounds(t *testing.T) {
	eng := sim.New(19)
	p := ConnectX4()
	for i := 0; i < 1000; i++ {
		to := p.DrawTimeout(eng, 1, 1)
		ttr := p.TTr(1)
		if to < ttr || to > 4*ttr {
			t.Fatalf("T_o = %v outside [T_tr, 4·T_tr]", to)
		}
	}
	// Load lengthens the draw but never beyond the spec clamp.
	var idle, loaded sim.Time
	for i := 0; i < 200; i++ {
		idle += p.DrawTimeout(eng, 18, 1)
		loaded += p.DrawTimeout(eng, 18, 100)
	}
	if loaded <= idle {
		t.Error("busy QPs should lengthen the timeout (§VI-C)")
	}
	for i := 0; i < 100; i++ {
		if to := p.DrawTimeout(eng, 18, 10000); to > 4*p.TTr(18) {
			t.Fatal("load scaling must respect the 4·T_tr clamp")
		}
	}
}

func TestCQWaitN(t *testing.T) {
	h := newHarness(t, goBackN, 20, ConnectX4(), noODP, defaultParams())
	var got []CQE
	h.eng.Go("bench", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			h.qpC.PostSend(SendWR{ID: uint64(i), Op: OpRead, LocalAddr: h.lbuf, RemoteAddr: h.rbuf, Len: 100})
			p.Sleep(10 * sim.Microsecond)
		}
		got = h.cqC.WaitN(p, 3)
	})
	h.eng.MustRun()
	if len(got) != 3 {
		t.Fatalf("WaitN returned %d", len(got))
	}
}
