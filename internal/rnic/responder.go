package rnic

import (
	"odpsim/internal/hostmem"
	"odpsim/internal/packet"
	"odpsim/internal/sim"
)

// responderReceive handles inbound requests: PSN sequencing, translation
// (with server-side ODP faults answered by RNR NAK), execution and
// acknowledgement. Go-back-N sequences here; an IRN QP sequences through
// its reorder buffer instead. Both then execute through execute.
func (qp *QP) responderReceive(pkt *packet.Packet) {
	if qp.state != QPReady {
		return
	}
	r := qp.rnic
	if pkt.DammingDoomed {
		// The ConnectX-4 quirk: the packet reached the wire but the
		// RNIC discards it without processing or NAK — the expected
		// PSN stays where it was, damming everything behind it.
		r.DammedDrops++
		return
	}
	if qp.irn != nil {
		qp.irnResponderReceive(pkt)
		return
	}
	d := packet.PSNDiff(pkt.PSN, qp.ePSN)
	if d > 0 {
		// A gap: an earlier request was lost. NAK with the PSN we
		// expected so the requester retransmits from there (Figure 8).
		r.NakSeqSent++
		qp.sendAck(packet.SynNAKSeqErr, qp.ePSN)
		return
	}
	dup := d < 0
	if dup {
		r.DuplicateRequests++
	}
	if npsn, ok := qp.execute(pkt, dup); ok && !dup {
		qp.ePSN = packet.PSNAdd(pkt.PSN, npsn)
	}
}

// execute runs one request that sequencing has accepted, or re-answers
// a duplicate (dup) of one already executed. It returns the PSN span
// the request occupies and whether it was accepted; ok is false when
// the request was NAKed (protection error or RNR) and the expected PSN
// must stay on it. The caller owns the expected PSN.
func (qp *QP) execute(pkt *packet.Packet, dup bool) (npsn int, ok bool) {
	switch pkt.Opcode {
	case packet.OpReadRequest:
		return qp.respondRead(pkt)
	case packet.OpWriteOnly:
		return 1, qp.respondWrite(pkt)
	case packet.OpSendOnly:
		return 1, qp.respondSend(pkt, dup)
	case packet.OpFetchAdd, packet.OpCmpSwap:
		return 1, qp.respondAtomic(pkt, dup)
	}
	return 0, false // Opcode.IsRequest admits no other opcode
}

// translateRemote checks responder-side access to the range. On an ODP
// miss it registers the fault (or spurious re-access) and reports
// ok=false — the RNR NAK path. An NP-RDMA region always translates
// (ok=true) but may return a nonzero stall: the driver migrates the
// cold pages synchronously and the response leaves that much later.
// The NIC never sees a miss, so no NAK, no pending window, no damming.
func (qp *QP) translateRemote(addr hostmem.Addr, length int) (ok bool, stall sim.Time) {
	r := qp.rnic
	kind, found := r.lookupMR(addr, length)
	if !found {
		return false, 0 // protection error, handled by caller
	}
	switch kind {
	case KindPinned:
		return true, 0 // pinned region: always translatable
	case KindNPR:
		return true, r.npr.EnsureRange(addr, length)
	}
	if r.ODP.Access(qp.Num, addr, length) {
		return true, 0
	}
	// Re-arrivals while the fault is pending are free on the responder:
	// the server is stateless — it just NAKs again and "the requests
	// that cannot be processed can be completely ignored" (§VI-C). Only
	// the client-side discard path loads the ODP pipeline.
	r.ODP.Fault(qp.Num, addr, length)
	return false, 0
}

// respondRead executes a READ, or re-reads a duplicate: the requester
// only re-asks after losing responses, so a duplicate gets its data again.
func (qp *QP) respondRead(pkt *packet.Packet) (npsn int, ok bool) {
	r := qp.rnic
	addr := hostmem.Addr(pkt.RemoteAddr)
	length := int(pkt.DMALen)
	npsn = (length + r.prof.MTU - 1) / r.prof.MTU
	if npsn < 1 {
		npsn = 1
	}
	if _, found := r.lookupMR(addr, length); !found {
		qp.sendAck(packet.SynNAKRemoteAccessErr, pkt.PSN)
		return npsn, false
	}
	ok, stall := qp.translateRemote(addr, length)
	if !ok {
		// Server-side ODP: suspend the requester; the reliability of
		// RC leaves the request on the requester side, so nothing
		// needs to be stored here (§III-B).
		r.RNRNakSent++
		qp.sendRNRNak(pkt.PSN)
		return npsn, false
	}
	r.ReadsExecuted++
	if stall > 0 {
		// NP-RDMA cold pages: the request *is* accepted (the expected
		// PSN moves on); only the response waits out the driver
		// migration.
		psn := pkt.PSN
		r.eng.ScheduleAfter(stall, func() { qp.sendReadResponse(psn, length, npsn) })
		return npsn, true
	}
	qp.sendReadResponse(pkt.PSN, length, npsn)
	return npsn, true
}

func (qp *QP) respondWrite(pkt *packet.Packet) bool {
	r := qp.rnic
	addr := hostmem.Addr(pkt.RemoteAddr)
	length := int(pkt.DMALen)
	if _, ok := r.lookupMR(addr, length); !ok {
		qp.sendAck(packet.SynNAKRemoteAccessErr, pkt.PSN)
		return false
	}
	ok, stall := qp.translateRemote(addr, length)
	if !ok {
		r.RNRNakSent++
		qp.sendRNRNak(pkt.PSN)
		return false
	}
	r.WritesExecuted++
	if pkt.AckReq {
		if stall > 0 {
			psn := pkt.PSN
			r.eng.ScheduleAfter(stall, func() { qp.sendAck(packet.SynACK, psn) })
			return true
		}
		qp.sendAck(packet.SynACK, pkt.PSN)
	}
	return true
}

func (qp *QP) respondSend(pkt *packet.Packet, dup bool) bool {
	r := qp.rnic
	if dup {
		// Already consumed a receive buffer for it; just re-ACK.
		qp.sendAck(packet.SynACK, pkt.PSN)
		return true
	}
	if len(qp.rq) == 0 {
		// The genuine Receiver-Not-Ready condition.
		r.RNRNakSent++
		r.OutOfBuffer++
		qp.sendRNRNak(pkt.PSN)
		return false
	}
	rwr := qp.rq[0]
	ok, stall := qp.translateRemote(rwr.Addr, pkt.PayloadLen)
	if !ok {
		r.RNRNakSent++
		qp.sendRNRNak(pkt.PSN)
		return false
	}
	qp.rq = qp.rq[1:]
	if stall > 0 {
		// The receive completes and the ACK goes out once the driver
		// has migrated the landing buffer (scalar captures only).
		id, psn, plen := rwr.ID, pkt.PSN, pkt.PayloadLen
		r.eng.ScheduleAfter(stall, func() {
			qp.deliver(qp.recvCQ, CQE{WRID: id, QPN: qp.Num, Status: WCSuccess, Op: OpSend, ByteLen: plen, Recv: true})
			qp.sendAck(packet.SynACK, psn)
		})
		return true
	}
	qp.deliver(qp.recvCQ, CQE{WRID: rwr.ID, QPN: qp.Num, Status: WCSuccess, Op: OpSend, ByteLen: pkt.PayloadLen, Recv: true})
	qp.sendAck(packet.SynACK, pkt.PSN)
	return true
}

// sendAck emits an Acknowledge with the given syndrome for psn.
func (qp *QP) sendAck(syn packet.Syndrome, psn uint32) {
	pkt := qp.rnic.pool.Get()
	pkt.DLID = qp.dlid
	pkt.DestQP = qp.dqpn
	pkt.SrcQP = qp.Num
	pkt.Opcode = packet.OpAcknowledge
	pkt.Syndrome = syn
	pkt.PSN = psn
	pkt.AckPSN = psn
	qp.rnic.Port.Send(pkt)
}

// sendRNRNak emits an RNR NAK advertising this QP's minimal RNR NAK delay.
func (qp *QP) sendRNRNak(psn uint32) {
	pkt := qp.rnic.pool.Get()
	pkt.DLID = qp.dlid
	pkt.DestQP = qp.dqpn
	pkt.SrcQP = qp.Num
	pkt.Opcode = packet.OpAcknowledge
	pkt.Syndrome = packet.SynRNRNAK
	pkt.PSN = psn
	pkt.AckPSN = psn
	pkt.RNRTimerNs = int64(qp.params.MinRNRDelay)
	qp.rnic.Port.Send(pkt)
}

// sendReadResponse streams the READ payload back as one or more response
// packets with consecutive PSNs.
func (qp *QP) sendReadResponse(firstPSN uint32, length, npsn int) {
	mtu := qp.rnic.prof.MTU
	for i := 0; i < npsn; i++ {
		chunk := length - i*mtu
		if chunk > mtu {
			chunk = mtu
		}
		if chunk < 0 {
			chunk = 0
		}
		var op packet.Opcode
		switch {
		case npsn == 1:
			op = packet.OpReadRespOnly
		case i == 0:
			op = packet.OpReadRespFirst
		case i == npsn-1:
			op = packet.OpReadRespLast
		default:
			op = packet.OpReadRespMiddle
		}
		pkt := qp.rnic.pool.Get()
		pkt.DLID = qp.dlid
		pkt.DestQP = qp.dqpn
		pkt.SrcQP = qp.Num
		pkt.Opcode = op
		pkt.PSN = packet.PSNAdd(firstPSN, i)
		pkt.AckPSN = packet.PSNAdd(firstPSN, i)
		pkt.Syndrome = packet.SynACK
		pkt.PayloadLen = chunk
		// READ responses are the data-bearing direction of a READ
		// workload, so they flow through the same DCQCN limiter.
		qp.sendPaced(pkt)
	}
}
