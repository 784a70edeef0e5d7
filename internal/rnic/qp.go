package rnic

import (
	"fmt"
	"strconv"

	"odpsim/internal/congestion"
	"odpsim/internal/hostmem"
	"odpsim/internal/irn"
	"odpsim/internal/packet"
	"odpsim/internal/sim"
	"odpsim/internal/telemetry"
)

// SendOp is the operation type of a send work request.
type SendOp int

// Send operations.
const (
	OpRead SendOp = iota
	OpWrite
	OpSend
)

// String implements fmt.Stringer.
func (o SendOp) String() string {
	switch o {
	case OpRead:
		return "READ"
	case OpWrite:
		return "WRITE"
	case OpSend:
		return "SEND"
	case OpAtomicFA:
		return "FETCH_ADD"
	case OpAtomicCS:
		return "CMP_SWAP"
	default:
		return fmt.Sprintf("SendOp(%d)", int(o))
	}
}

// SendWR is a send work request.
type SendWR struct {
	ID         uint64
	Op         SendOp
	LocalAddr  hostmem.Addr
	RemoteAddr hostmem.Addr // ignored for SEND
	Len        int
	// CompareAdd is the addend (fetch-and-add) or compare value
	// (compare-and-swap); Swap is the swap value (compare-and-swap).
	CompareAdd uint64
	Swap       uint64
}

// RecvWR is a receive work request.
type RecvWR struct {
	ID   uint64
	Addr hostmem.Addr
	Len  int
}

// ConnParams are the connection attributes the paper varies: Local ACK
// Timeout (C_ACK), Retry Count (C_retry) and the minimal RNR NAK delay.
type ConnParams struct {
	// CACK is the Local ACK Timeout exponent; 0 disables the timeout.
	CACK int
	// RetryCount is C_retry: the retransmission budget before
	// IBV_WC_RETRY_EXC_ERR.
	RetryCount int
	// MinRNRDelay is advertised in RNR NAKs this QP sends as responder.
	MinRNRDelay sim.Time
	// MaxRdAtomic caps outstanding RDMA READs (0 = device default).
	MaxRdAtomic int
	// RNRRetry is the RNR retry budget; per the InfiniBand convention 7
	// means retry forever. 0 selects the default of 7.
	RNRRetry int
}

// QPState is the (simplified) queue pair state.
type QPState int

// QP states.
const (
	QPReset QPState = iota
	QPReady         // equivalent of RTS
	QPError
)

// wqe is a send work request with the requester-side bookkeeping that the
// damming quirk and client-side ODP need.
type wqe struct {
	SendWR
	// postedPaused records that the WR was posted while the QP was in a
	// pending window (awaiting an RNR or client-fault retransmission) —
	// the packet-damming precondition.
	postedPaused bool
	// faulted marks that the client-side fault for the local buffer was
	// already registered with the ODP engine.
	faulted bool
	// nprHeld marks that the WR holds NP-RDMA frame references on its
	// local buffer (taken at first transmission, dropped when the WR
	// leaves the outstanding window). Held frames cannot evict, so READ
	// responses always find a valid translation — no discard, no blind
	// retransmission.
	nprHeld bool
}

// outReq is a transmitted, uncompleted request.
type outReq struct {
	w           *wqe
	firstPSN    uint32
	npsn        int
	attempts    int
	rnrAttempts int
	// IRN bookkeeping: sacked marks the request's arrival confirmed by
	// a SACK bitmap; retxDone guards selective retransmission to once
	// per recovery round (a persistent hole falls back to the timeout).
	sacked   bool
	retxDone bool
}

func (o *outReq) lastPSN() uint32 { return packet.PSNAdd(o.firstPSN, o.npsn-1) }

// QPStats counts requester-side events.
type QPStats struct {
	Posted             uint64
	Completed          uint64
	Timeouts           uint64
	Retransmits        uint64
	RNRNakReceived     uint64
	NakSeqReceived     uint64
	ResponsesDiscarded uint64
	ClientFaultRounds  uint64
}

// QP is a queue pair: both the requester and the responder state machines
// of one Reliable Connection endpoint.
type QP struct {
	rnic   *RNIC
	Num    uint32
	sendCQ *CQ
	recvCQ *CQ

	state  QPState
	dlid   uint16
	dqpn   uint32
	params ConnParams

	// Requester state.
	sq          []*wqe
	out         []*outReq
	nextPSN     uint32
	paused      bool
	inResume    bool
	pauseFrom   uint32
	resumeTimer sim.Timer
	toTimer     sim.Timer
	// Cached method values so arming a timer doesn't allocate a closure
	// on every timeout/pending-window entry.
	onTimeoutFn func()
	resumeFn    func()

	// DCQCN state: rate is the reaction-point limiter (nil unless the
	// device enabled DCQCN before this QP was created), lastCNP the
	// notification-point pacing clock for marked arrivals on this QP.
	rate    *congestion.RateState
	lastCNP sim.Time

	// irn is the selective-repeat transport state (nil on go-back-N
	// devices; see EnableIRN and internal/rnic/irn.go).
	irn *irn.State

	// Responder state.
	ePSN uint32
	rq   []RecvWR
	// atomicReplay caches executed atomics' original values for
	// duplicate replay (see atomics.go).
	atomicReplay map[uint32]uint64
	atomicOrder  []uint32
	// pendingAtomicOrig carries an atomic response's value into the CQE
	// built by completeThrough.
	pendingAtomicOrig uint64

	Stats QPStats
}

// registerMetrics publishes the QP's requester statistics as per-QP
// counters, the way `rdma statistic qp show` exposes them. The Stats
// fields are the live storage.
func (qp *QP) registerMetrics(reg *telemetry.Registry) {
	l := telemetry.Labels{"qpn": strconv.FormatUint(uint64(qp.Num), 10)}
	reg.Counter(telemetry.LocalAckTimeoutErr, "Local ACK Timeout expirations on the requester", l, &qp.Stats.Timeouts)
	reg.Counter(telemetry.RNRNakRetryErr, "RNR NAKs received by the requester", l, &qp.Stats.RNRNakReceived)
	reg.Counter(telemetry.PacketSeqErr, "PSN sequence error NAKs received by the requester", l, &qp.Stats.NakSeqReceived)
	reg.Counter(telemetry.SimReqPosted, "send work requests posted", l, &qp.Stats.Posted)
	reg.Counter(telemetry.SimReqCompleted, "send work requests completed", l, &qp.Stats.Completed)
	reg.Counter(telemetry.SimRetransmits, "request packets retransmitted (go-back-N sends)", l, &qp.Stats.Retransmits)
	reg.Counter(telemetry.SimResponsesDiscarded, "READ responses discarded (pending window or stale page)", l, &qp.Stats.ResponsesDiscarded)
	reg.Counter(telemetry.SimClientFaultRounds, "client-side ODP fault rounds", l, &qp.Stats.ClientFaultRounds)
}

// deliver pushes a CQE, tallying it in the device's per-status
// completion counters first.
func (qp *QP) deliver(cq *CQ, e CQE) {
	qp.rnic.countWC(e.Status)
	cq.push(e)
}

// State returns the QP state.
func (qp *QP) State() QPState { return qp.state }

// Params returns the connection parameters.
func (qp *QP) Params() ConnParams { return qp.params }

// Connect transitions the QP to the ready state, bound to the remote LID
// and QP number. It corresponds to the INIT→RTR→RTS modify sequence.
func (qp *QP) Connect(dlid uint16, dqpn uint32, params ConnParams) {
	if params.MaxRdAtomic <= 0 {
		params.MaxRdAtomic = qp.rnic.prof.MaxRdAtomic
	}
	if params.RetryCount < 0 {
		params.RetryCount = 0
	}
	if params.RNRRetry <= 0 {
		params.RNRRetry = 7
	}
	qp.dlid = dlid
	qp.dqpn = dqpn
	qp.params = params
	qp.state = QPReady
}

// Reset returns the QP to the Reset state, clearing all requester and
// responder state (ibv_modify_qp to IBV_QPS_RESET) so the application
// can reconnect and reuse it — the standard recovery path after
// IBV_WC_RETRY_EXC_ERR.
func (qp *QP) Reset() {
	qp.toTimer.Cancel()
	qp.resumeTimer.Cancel()
	if qp.state == QPReady && len(qp.out) > 0 {
		qp.rnic.busyQPs--
	}
	qp.state = QPReset
	for _, o := range qp.out {
		qp.releaseNPR(o.w)
	}
	qp.sq, qp.out, qp.rq = nil, nil, nil
	qp.nextPSN, qp.ePSN = 0, 0
	qp.paused, qp.inResume = false, false
	qp.atomicReplay, qp.atomicOrder = nil, nil
	if qp.irn != nil {
		qp.irn.RB.Init(0)
		qp.irn.TX.Init(qp.rnic.irnBDP, 0)
	}
}

// PostRecv posts a receive work request.
func (qp *QP) PostRecv(wr RecvWR) {
	qp.rq = append(qp.rq, wr)
}

// PostSend posts a send work request. On an errored QP the WR completes
// immediately with a flush error.
func (qp *QP) PostSend(wr SendWR) {
	if qp.state != QPReady {
		qp.deliver(qp.sendCQ, CQE{WRID: wr.ID, QPN: qp.Num, Status: WCFlushErr, Op: wr.Op})
		return
	}
	qp.Stats.Posted++
	w := &wqe{SendWR: wr, postedPaused: qp.paused}
	qp.sq = append(qp.sq, w)
	if !qp.paused {
		qp.pump()
	}
}

// OutstandingReads counts in-flight RDMA READs and atomics (both consume
// responder resources and share the MaxRdAtomic budget).
func (qp *QP) OutstandingReads() int {
	n := 0
	for _, o := range qp.out {
		if o.w.Op == OpRead || isAtomic(o.w.Op) {
			n++
		}
	}
	return n
}

// pump transmits queued WRs while flow-control allows. An IRN QP never
// pauses (it has no pending windows) but also stops at its BDP cap and
// reorder-window span.
func (qp *QP) pump() {
	if qp.paused || qp.state != QPReady {
		return
	}
	sent := false
	for len(qp.sq) > 0 {
		w := qp.sq[0]
		if (w.Op == OpRead || isAtomic(w.Op)) && qp.OutstandingReads() >= qp.params.MaxRdAtomic {
			break
		}
		npsn := 1
		if w.Op == OpRead {
			npsn = (w.Len + qp.rnic.prof.MTU - 1) / qp.rnic.prof.MTU
			if npsn < 1 {
				npsn = 1
			}
		}
		charge := w.Len + irnHeaderBytes
		if qp.irn != nil && !qp.irn.TX.CanSend(charge, npsn) {
			qp.rnic.BdpStalls++
			break
		}
		qp.sq = qp.sq[1:]
		o := &outReq{w: w, firstPSN: qp.nextPSN, npsn: npsn}
		qp.nextPSN = packet.PSNAdd(qp.nextPSN, npsn)
		if len(qp.out) == 0 {
			qp.rnic.busyQPs++
		}
		qp.out = append(qp.out, o)
		if qp.irn != nil {
			qp.irn.TX.OnSend(o.firstPSN, npsn, charge)
		}
		qp.sendRequest(o)
		sent = true
	}
	// Arm the Local ACK Timeout when transmissions start; an already
	// running timer keeps tracking the oldest outstanding request.
	if sent && !qp.toTimer.Pending() {
		qp.armTimeout()
	}
}

// sendRequest transmits (or retransmits) one request packet, applying the
// ConnectX-4 damming quirk: when the transmission happens as part of a
// pending-window exit batch (an RNR or client-fault resume) and the WR was
// first posted during a pending window, the packet is marked doomed — it
// shows up in a capture but the peer RNIC discards it (DESIGN.md §4.3).
// Timeout- and NAK-triggered retransmissions are unaffected, which is why
// follow-up traffic rescues dammed requests via the PSN sequence error NAK
// (§V-B) while an idle QP has to ride out the full timeout.
//
// The return value reports whether the packet actually went to the wire
// (or was booked for a paced future send); false means the DCQCN TX
// backlog shed it. Retransmission accounting counts wire sends only —
// the counters mirror what a capture or the mlx5 hardware counters see,
// and a shed packet never left the NIC.
func (qp *QP) sendRequest(o *outReq) bool {
	// NP-RDMA local translation: the driver migrates the WR's local
	// buffer into the DMA-able pool and references its frames before the
	// first transmission. Cold pages stall the send by the synchronous
	// migration time; warm pages cost nothing. The nil check is the only
	// hot-path cost in pin/odp modes.
	var nprStall sim.Time
	if pool := qp.rnic.npr; pool != nil && !o.w.nprHeld {
		if kind, ok := qp.rnic.lookupMR(o.w.LocalAddr, o.w.Len); ok && kind == KindNPR {
			nprStall = pool.Acquire(o.w.LocalAddr, o.w.Len)
			o.w.nprHeld = true
		}
	}
	pkt := qp.rnic.pool.Get()
	pkt.DLID = qp.dlid
	pkt.DestQP = qp.dqpn
	pkt.SrcQP = qp.Num
	pkt.PSN = o.firstPSN
	pkt.AckReq = true
	switch o.w.Op {
	case OpRead:
		pkt.Opcode = packet.OpReadRequest
		pkt.RemoteAddr = uint64(o.w.RemoteAddr)
		pkt.DMALen = uint32(o.w.Len)
	case OpWrite:
		pkt.Opcode = packet.OpWriteOnly
		pkt.RemoteAddr = uint64(o.w.RemoteAddr)
		pkt.DMALen = uint32(o.w.Len)
		pkt.PayloadLen = o.w.Len
	case OpSend:
		pkt.Opcode = packet.OpSendOnly
		pkt.PayloadLen = o.w.Len
	case OpAtomicFA, OpAtomicCS:
		buildAtomicPacket(pkt, o.w)
	}
	if qp.rnic.prof.DammingQuirk && o.w.postedPaused {
		if qp.inResume {
			// Every transmission that happens as part of a replay
			// batch is corrupted for a WR that entered the queue
			// during a pending window — Figure 5 shows the loss
			// repeating until a timeout- or NAK-triggered path takes
			// over.
			pkt.DammingDoomed = true
		} else {
			// Once the WR goes out through the ordinary send path
			// (timeout/NAK retransmission or a pump after progress)
			// it is no longer entangled with the replay state.
			o.w.postedPaused = false
		}
	}
	if nprStall > 0 {
		// A cold-buffer send leaves the NIC only after the driver
		// migration completes (cold path: the deferred closure follows
		// the sendPaced precedent and owns the packet until Send).
		port := qp.rnic.Port
		qp.rnic.eng.ScheduleAfter(nprStall, func() { port.Send(pkt) })
		return true
	}
	return qp.sendPaced(pkt)
}

// sendPaced transmits through the QP's DCQCN rate limiter: at line rate
// the packet goes straight to the port (no closure, no timer — the
// zero-allocation datapath is untouched unless a CNP has actually cut
// this QP's rate); when limited, transmission is deferred to the rate
// credit's start time. A full TX backlog sheds the packet (returning
// false) — go-back-N storms would otherwise book unbounded future sends
// — and recovery is left to the timeout/NAK machinery that generated
// the burst.
func (qp *QP) sendPaced(pkt *packet.Packet) bool {
	if qp.rate != nil {
		now := qp.rnic.eng.Now()
		start, ok := qp.rate.Reserve(now, pkt.WireSize())
		if !ok {
			qp.rnic.pool.Put(pkt)
			return false
		}
		if start > now {
			port := qp.rnic.Port
			qp.rnic.eng.Schedule(start, func() { port.Send(pkt) })
			return true
		}
	}
	qp.rnic.Port.Send(pkt)
	return true
}

// armTimeout (re)arms the Local ACK Timeout for the oldest outstanding
// request. CACK == 0 disables timeouts per the specification.
func (qp *QP) armTimeout() {
	qp.toTimer.Cancel()
	if qp.params.CACK == 0 || len(qp.out) == 0 || qp.paused || qp.state != QPReady {
		return
	}
	to := qp.rnic.prof.DrawTimeout(qp.rnic.eng, qp.params.CACK, qp.rnic.busyQPs)
	qp.toTimer = qp.rnic.eng.After(to, qp.onTimeoutFn)
}

func (qp *QP) onTimeout() {
	if len(qp.out) == 0 || qp.state != QPReady {
		return
	}
	o := qp.out[0]
	o.attempts++
	qp.Stats.Timeouts++
	if o.attempts > qp.params.RetryCount {
		qp.fatal(o, WCRetryExcErr)
		return
	}
	if qp.irn != nil {
		qp.irnRetransmit(o) // only the oldest request, not the window
	} else {
		qp.retransmitFrom(o.firstPSN)
	}
	qp.armTimeout()
}

// retransmitFrom resends every outstanding request at or after psn
// (go-back-N). Only packets that reach the wire count as
// retransmissions; sends shed by a full DCQCN TX backlog do not.
func (qp *QP) retransmitFrom(psn uint32) {
	for _, o := range qp.out {
		if packet.PSNDiff(o.lastPSN(), psn) >= 0 {
			if qp.sendRequest(o) {
				qp.Stats.Retransmits++
			}
		}
	}
}

// enterPending puts the requester into a pending window: the send engine
// is suspended, arriving READ responses are discarded, and at the end of
// the window everything from fromPSN is retransmitted and newly posted
// WRs go out (the batch the damming quirk strikes).
func (qp *QP) enterPending(delay sim.Time, fromPSN uint32) {
	qp.paused = true
	qp.pauseFrom = fromPSN
	qp.toTimer.Cancel()
	qp.resumeTimer.Cancel()
	qp.resumeTimer = qp.rnic.eng.After(delay, qp.resumeFn)
}

func (qp *QP) resumePending() {
	if qp.state != QPReady {
		return
	}
	qp.paused = false
	qp.inResume = true
	qp.retransmitFrom(qp.pauseFrom)
	qp.pump()
	qp.inResume = false
	qp.armTimeout()
}

// findOut locates the outstanding request containing psn.
func (qp *QP) findOut(psn uint32) *outReq {
	for _, o := range qp.out {
		d := packet.PSNDiff(psn, o.firstPSN)
		if d >= 0 && d < o.npsn {
			return o
		}
	}
	return nil
}

// localIsODP reports whether the WR's local buffer lies in an ODP
// registration (client-side ODP applies to its READ responses). NPR
// locals return false on purpose: their translations are driver-held
// for the WR's lifetime, so the client-fault discard path never runs.
func (qp *QP) localIsODP(w *wqe) bool {
	kind, ok := qp.rnic.lookupMR(w.LocalAddr, w.Len)
	return ok && kind == KindODP
}

// releaseNPR drops the WR's NP-RDMA frame references once it leaves
// the outstanding window (completion, fatal error or reset).
func (qp *QP) releaseNPR(w *wqe) {
	if w.nprHeld {
		w.nprHeld = false
		qp.rnic.npr.Release(w.LocalAddr, w.Len)
	}
}

// requesterReceive handles responses and acknowledges.
func (qp *QP) requesterReceive(pkt *packet.Packet) {
	if qp.state != QPReady {
		return
	}
	switch {
	case pkt.Opcode == packet.OpAcknowledge:
		qp.handleAck(pkt)
	case pkt.Opcode == packet.OpSACK:
		qp.irnHandleSack(pkt)
	case pkt.Opcode == packet.OpAtomicResp:
		qp.handleAtomicResp(pkt)
	case pkt.Opcode.IsReadResponse():
		qp.handleReadResponse(pkt)
	}
}

func (qp *QP) handleAck(pkt *packet.Packet) {
	switch pkt.Syndrome {
	case packet.SynACK:
		qp.ackThrough(pkt.AckPSN)
	case packet.SynRNRNAK:
		qp.Stats.RNRNakReceived++
		if qp.paused {
			return
		}
		o := qp.findOut(pkt.AckPSN)
		if o == nil && qp.irn != nil {
			return // IRN retries only this request, and it has completed
		}
		if o != nil && qp.params.RNRRetry < 7 {
			o.rnrAttempts++
			if o.rnrAttempts > qp.params.RNRRetry {
				qp.fatal(o, WCRNRRetryExcErr)
				return
			}
		}
		// The requester waits noticeably longer than the advertised
		// minimum (observed ≈3.5× on ConnectX-4, Figure 1).
		wait := qp.rnic.eng.Jitter(
			sim.Time(float64(pkt.RNRTimerNs)*qp.rnic.prof.RNRWaitFactor), 0.05)
		if qp.irn != nil {
			// Per-packet: every other in-flight request keeps flowing.
			qp.irnRetryAfter(wait, o.firstPSN)
			return
		}
		qp.enterPending(wait, pkt.AckPSN)
	case packet.SynNAKSeqErr:
		qp.Stats.NakSeqReceived++
		if qp.paused {
			return
		}
		qp.retransmitFrom(pkt.AckPSN)
		qp.armTimeout()
	case packet.SynNAKRemoteAccessErr:
		if o := qp.findOut(pkt.AckPSN); o != nil {
			qp.fatal(o, WCRemoteAccessErr)
		}
	}
}

func (qp *QP) handleReadResponse(pkt *packet.Packet) {
	if qp.paused {
		// Responses that arrive during a pending window are discarded
		// (observed via ibdump, Figure 1). Discards whose local page
		// status is stale still cost ODP pipeline work — under
		// go-back-N every outstanding READ's re-executed response
		// lands here, which is a large share of the flood load.
		qp.Stats.ResponsesDiscarded++
		if o := qp.findOut(pkt.PSN); o != nil && o.w.faulted &&
			qp.localIsODP(o.w) && !qp.rnic.ODP.Access(qp.Num, o.w.LocalAddr, o.w.Len) {
			qp.rnic.ODP.Spurious(qp.Num, o.w.LocalAddr, o.w.Len)
		}
		return
	}
	o := qp.findOut(pkt.PSN)
	if o == nil {
		return // ghost or duplicate response
	}
	if qp.localIsODP(o.w) && !qp.rnic.ODP.Access(qp.Num, o.w.LocalAddr, o.w.Len) {
		// Client-side ODP: the RNIC cannot scatter the payload, drops
		// the response, and schedules a blind retransmission of the
		// request — over and over until the page status update lands.
		qp.Stats.ResponsesDiscarded++
		qp.Stats.ClientFaultRounds++
		if !o.w.faulted {
			o.w.faulted = true
			qp.rnic.ODP.Fault(qp.Num, o.w.LocalAddr, o.w.Len)
		} else {
			qp.rnic.ODP.Spurious(qp.Num, o.w.LocalAddr, o.w.Len)
		}
		delay := qp.rnic.eng.Jitter(qp.rnic.ODP.RetransInterval(), 0.1)
		if qp.irn != nil {
			// IRN: only the faulting READ retries and other responses
			// keep landing — the flood loop shrinks to one request.
			qp.irnRetryAfter(delay, o.firstPSN)
			return
		}
		qp.enterPending(delay, o.firstPSN)
		return
	}
	last := pkt.Opcode == packet.OpReadRespOnly || pkt.Opcode == packet.OpReadRespLast
	if last && pkt.PSN == o.lastPSN() {
		qp.completeThrough(o)
	}
}

// completeThrough completes every outstanding request up to and including
// o (a READ response implicitly acknowledges everything before it).
func (qp *QP) completeThrough(o *outReq) {
	for len(qp.out) > 0 {
		h := qp.out[0]
		if packet.PSNDiff(h.lastPSN(), o.lastPSN()) > 0 {
			break
		}
		qp.out = qp.out[1:]
		qp.releaseNPR(h.w)
		qp.Stats.Completed++
		cqe := CQE{WRID: h.w.ID, QPN: qp.Num, Status: WCSuccess, Op: h.w.Op, ByteLen: h.w.Len}
		if isAtomic(h.w.Op) {
			cqe.AtomicOrig = qp.pendingAtomicOrig
		}
		qp.deliver(qp.sendCQ, cqe)
	}
	if qp.irn != nil {
		qp.irnReleaseTX()
	}
	qp.afterProgress()
}

// ackThrough completes non-READ requests acknowledged by psn. READs only
// complete when their response data arrives.
func (qp *QP) ackThrough(psn uint32) {
	progressed := false
	for len(qp.out) > 0 {
		h := qp.out[0]
		if h.w.Op == OpRead || isAtomic(h.w.Op) || packet.PSNDiff(h.lastPSN(), psn) > 0 {
			break
		}
		qp.out = qp.out[1:]
		qp.releaseNPR(h.w)
		qp.Stats.Completed++
		qp.deliver(qp.sendCQ, CQE{WRID: h.w.ID, QPN: qp.Num, Status: WCSuccess, Op: h.w.Op, ByteLen: h.w.Len})
		progressed = true
	}
	if progressed {
		if qp.irn != nil {
			qp.irnReleaseTX()
		}
		qp.afterProgress()
	}
}

func (qp *QP) afterProgress() {
	if len(qp.out) == 0 {
		qp.rnic.busyQPs--
		qp.toTimer.Cancel()
	} else {
		qp.armTimeout()
	}
	qp.pump()
}

// fatal moves the QP to the Error state: the culprit WR completes with
// status, everything else flushes.
func (qp *QP) fatal(culprit *outReq, status WCStatus) {
	qp.state = QPError
	qp.toTimer.Cancel()
	qp.resumeTimer.Cancel()
	if len(qp.out) > 0 {
		qp.rnic.busyQPs--
	}
	qp.deliver(qp.sendCQ, CQE{WRID: culprit.w.ID, QPN: qp.Num, Status: status, Op: culprit.w.Op})
	for _, o := range qp.out {
		qp.releaseNPR(o.w)
		if o != culprit {
			qp.deliver(qp.sendCQ, CQE{WRID: o.w.ID, QPN: qp.Num, Status: WCFlushErr, Op: o.w.Op})
		}
	}
	for _, w := range qp.sq {
		qp.deliver(qp.sendCQ, CQE{WRID: w.ID, QPN: qp.Num, Status: WCFlushErr, Op: w.Op})
	}
	qp.out = nil
	qp.sq = nil
}
