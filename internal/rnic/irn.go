package rnic

import (
	"math/bits"

	"odpsim/internal/irn"
	"odpsim/internal/packet"
	"odpsim/internal/sim"
	"odpsim/internal/telemetry"
)

// This file is the rnic half of the IRN selective-repeat transport
// (internal/irn holds the protocol state machines). An IRN QP executes
// requests through the same responder functions and transmits through
// the same send pump as a go-back-N QP; only these decisions differ:
//
//   - sequencing: the responder accepts out-of-order request arrivals
//     into a bounded reorder buffer and answers them with SACKs
//     (cumulative ACK + reception bitmap) instead of PSN-sequence-error
//     NAKs; execution stays in ePSN order and sweeps the buffered run
//     when a gap fills;
//   - duplicate acknowledgement: a duplicate WRITE or SEND gets the
//     cumulative ACK (ePSN-1), not an ACK of its own PSN;
//   - recovery: a SACK hole, an RNR NAK, a client-side ODP fault or a
//     timeout retransmits exactly one request, never the window tail, and
//     never opens a pending window — so no response discards and no
//     damming replay batches;
//   - injection: the send pump also stops at the bandwidth × base RTT cap
//     and the reorder-window span instead of relying on PFC backpressure.

// EnableIRN switches every QP created afterwards to the IRN transport.
// Call before CreateQP; the irn_* counters register here so go-back-N
// devices keep their exact pre-existing metric set. A zero-value config
// derives the BDP from the device's line rate and the default base RTT.
func (r *RNIC) EnableIRN(cfg irn.Config) {
	if r.irnOn {
		panic("rnic: EnableIRN called twice")
	}
	r.irnOn = true
	if cfg.LineGbps <= 0 {
		cfg.LineGbps = r.prof.LinkGbps
	}
	r.irnBDP = cfg.EffectiveBDP()
	r.tel.Counter(telemetry.IrnSackSent, "SACKs sent for out-of-order arrivals", nil, &r.SackSent)
	r.tel.Counter(telemetry.IrnOooLanded, "requests accepted out of order into the reorder buffer", nil, &r.OooLanded)
	r.tel.Counter(telemetry.IrnBdpStalls, "sends deferred by the BDP injection cap", nil, &r.BdpStalls)
	r.tel.Counter(telemetry.IrnRetransmitted, "selective (single-packet) retransmissions", nil, &r.IrnRetrans)
}

// IRNEnabled reports whether the device runs the IRN transport.
func (r *RNIC) IRNEnabled() bool { return r.irnOn }

// irnHeaderBytes approximates the per-message header overhead charged
// against the BDP cap (LRH+BTH+RETH+CRCs of the request, or of one
// response chunk for READs). A WR charges its data-bearing direction's
// bytes (responses for READs, the request for everything else) plus
// this.
const irnHeaderBytes = 48

// irnRetransmit reissues the single request o, counting it only if it
// reached the wire.
func (qp *QP) irnRetransmit(o *outReq) bool {
	if !qp.sendRequest(o) {
		return false
	}
	qp.Stats.Retransmits++
	qp.rnic.IrnRetrans++
	return true
}

// irnRetryAfter reissues the single request containing psn after
// delay: the RNR and client-fault recovery path, which holds back only
// that request. The request may have completed in the meantime — a
// duplicate ACK or response can beat the timer.
func (qp *QP) irnRetryAfter(delay sim.Time, psn uint32) {
	qp.rnic.eng.ScheduleAfter(delay, func() {
		if qp.state != QPReady {
			return
		}
		o := qp.findOut(psn)
		if o == nil {
			return
		}
		qp.irnRetransmit(o)
		if !qp.toTimer.Pending() {
			qp.armTimeout()
		}
	})
}

// irnHandleSack processes a selective acknowledgement: complete through
// the cumulative point, mark requests the bitmap shows received, and
// retransmit each hole below the highest sacked PSN exactly once per
// recovery round (a hole that stays open falls back to the timeout).
func (qp *QP) irnHandleSack(pkt *packet.Packet) {
	if qp.irn == nil {
		return // a SACK can only reach a go-back-N QP by misconfiguration
	}
	qp.ackThrough(pkt.AckPSN)
	bm := pkt.SackBitmap
	if bm == 0 || len(qp.out) == 0 {
		return
	}
	base := pkt.SackBase
	hi := 63 - bits.LeadingZeros64(bm)
	hiPSN := packet.PSNAdd(base, hi)
	resent := false
	for _, o := range qp.out {
		d := packet.PSNDiff(o.firstPSN, base)
		if d >= 0 && d < 64 && bm&(1<<uint(d)) != 0 {
			o.sacked = true
			continue
		}
		if d < 0 || !packet.PSNLess(o.firstPSN, hiPSN) || o.sacked || o.retxDone {
			continue
		}
		if qp.irnRetransmit(o) {
			o.retxDone = true
			resent = true
		}
	}
	if resent {
		qp.armTimeout()
	}
}

// irnReleaseTX frees completed requests' BDP charges: everything below
// the new head of the outstanding window has been delivered in order.
func (qp *QP) irnReleaseTX() {
	upto := qp.nextPSN
	if len(qp.out) > 0 {
		upto = qp.out[0].firstPSN
	}
	qp.irn.TX.Complete(upto)
}

// irnResponderReceive classifies an arriving request against the
// reorder buffer: in-order packets execute and sweep the buffered run,
// out-of-order packets stash and SACK, duplicates re-acknowledge.
func (qp *QP) irnResponderReceive(pkt *packet.Packet) {
	r := qp.rnic
	rb := &qp.irn.RB
	switch rb.Classify(pkt.PSN) {
	case irn.InOrder:
		npsn, ok := qp.execute(pkt, false)
		if !ok {
			return // NAKed per packet; ePSN holds
		}
		rb.Advance(npsn)
		qp.irnSweep()
	case irn.Duplicate:
		r.DuplicateRequests++
		if packet.PSNDiff(pkt.PSN, rb.EPSN()) > 0 {
			// Stashed but not yet executed: refresh the SACK.
			qp.irnSendSack()
			return
		}
		switch pkt.Opcode {
		case packet.OpReadRequest, packet.OpFetchAdd, packet.OpCmpSwap:
			qp.execute(pkt, true) // re-read, or replay from the atomic cache
		default:
			// The cumulative ACK lets the requester clean up a lost
			// acknowledgement of any WRITE or SEND below ePSN.
			qp.sendAck(packet.SynACK, packet.PSNAdd(rb.EPSN(), -1))
		}
	case irn.OutOfOrder:
		r.OooLanded++
		rb.Stash(pkt)
		qp.irnSendSack()
	case irn.BeyondWindow:
		// A conforming requester's span cap keeps arrivals inside the
		// window; drop and restate our receive state.
		qp.irnSendSack()
	}
}

// irnSweep executes stashed packets as the gap fills, advancing ePSN
// through the buffered run. A head that faults is NAKed per packet and
// dropped from the buffer; the sweep resumes when its retransmission
// arrives.
func (qp *QP) irnSweep() {
	rb := &qp.irn.RB
	for {
		h, ok := rb.Head()
		if !ok {
			return
		}
		npsn, ok := qp.execute(h, false)
		if !ok {
			rb.DropHead()
			return
		}
		rb.Advance(npsn)
	}
}

// irnSendSack emits the responder's receive state: cumulative ACK plus
// the out-of-order reception bitmap. It doubles as the per-packet NAK
// for the first hole (SackBase).
func (qp *QP) irnSendSack() {
	base, bm := qp.irn.RB.Sack()
	pkt := qp.rnic.pool.Get()
	pkt.DLID = qp.dlid
	pkt.DestQP = qp.dqpn
	pkt.SrcQP = qp.Num
	pkt.Opcode = packet.OpSACK
	pkt.Syndrome = packet.SynACK
	pkt.AckPSN = packet.PSNAdd(base, -1)
	pkt.PSN = pkt.AckPSN
	pkt.SackBase = base
	pkt.SackBitmap = bm
	qp.rnic.SackSent++
	qp.rnic.Port.Send(pkt)
}
