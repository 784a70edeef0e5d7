package rnic

import (
	"odpsim/internal/hostmem"
	"odpsim/internal/packet"
)

// Atomic send operations (extend the SendOp space from qp.go). Atomics
// share the MaxRdAtomic outstanding budget with READs, per the
// InfiniBand specification.
const (
	// OpAtomicFA is an 8-byte fetch-and-add.
	OpAtomicFA SendOp = iota + 100
	// OpAtomicCS is an 8-byte compare-and-swap.
	OpAtomicCS
)

// isAtomic reports whether the op consumes responder resources like a
// READ.
func isAtomic(op SendOp) bool { return op == OpAtomicFA || op == OpAtomicCS }

// buildAtomicPacket fills the AtomicETH fields for an atomic request.
func buildAtomicPacket(pkt *packet.Packet, w *wqe) {
	pkt.RemoteAddr = uint64(w.RemoteAddr)
	pkt.DMALen = 8
	switch w.Op {
	case OpAtomicFA:
		pkt.Opcode = packet.OpFetchAdd
		pkt.AtomicSwap = w.CompareAdd // addend
	case OpAtomicCS:
		pkt.Opcode = packet.OpCmpSwap
		pkt.AtomicCompare = w.CompareAdd
		pkt.AtomicSwap = w.Swap
	}
}

// respondAtomic executes an atomic request against the host word store.
// Real responders must not re-execute a replayed atomic: the original
// result is kept in a small replay cache keyed by PSN, exactly the kind
// of limited on-chip state §IX highlights.
func (qp *QP) respondAtomic(pkt *packet.Packet, dup bool) bool {
	r := qp.rnic
	addr := hostmem.Addr(pkt.RemoteAddr)
	if _, ok := r.lookupMR(addr, 8); !ok {
		qp.sendAck(packet.SynNAKRemoteAccessErr, pkt.PSN)
		return false
	}
	if dup {
		if orig, ok := qp.atomicReplay[pkt.PSN]; ok {
			qp.sendAtomicResp(pkt.PSN, orig)
		}
		// A dup beyond the replay window is silently dropped; the
		// requester's timeout machinery handles it.
		return true
	}
	ok, stall := qp.translateRemote(addr, 8)
	if !ok {
		r.RNRNakSent++
		qp.sendRNRNak(pkt.PSN)
		return false
	}
	orig := r.AS.ReadWord(addr)
	switch pkt.Opcode {
	case packet.OpFetchAdd:
		r.AS.WriteWord(addr, orig+pkt.AtomicSwap)
	case packet.OpCmpSwap:
		if orig == pkt.AtomicCompare {
			r.AS.WriteWord(addr, pkt.AtomicSwap)
		}
	}
	r.AtomicsExecuted++
	qp.rememberAtomic(pkt.PSN, orig)
	if stall > 0 {
		// NP-RDMA: the atomic executed; its response waits out the
		// driver migration of the target page.
		psn := pkt.PSN
		r.eng.ScheduleAfter(stall, func() { qp.sendAtomicResp(psn, orig) })
		return true
	}
	qp.sendAtomicResp(pkt.PSN, orig)
	return true
}

// atomicReplayWindow bounds the responder's atomic replay cache.
const atomicReplayWindow = 16

func (qp *QP) rememberAtomic(psn uint32, orig uint64) {
	if qp.atomicReplay == nil {
		qp.atomicReplay = make(map[uint32]uint64)
	}
	qp.atomicReplay[psn] = orig
	qp.atomicOrder = append(qp.atomicOrder, psn)
	for len(qp.atomicOrder) > atomicReplayWindow {
		delete(qp.atomicReplay, qp.atomicOrder[0])
		qp.atomicOrder = qp.atomicOrder[1:]
	}
}

func (qp *QP) sendAtomicResp(psn uint32, orig uint64) {
	pkt := qp.rnic.pool.Get()
	pkt.DLID = qp.dlid
	pkt.DestQP = qp.dqpn
	pkt.SrcQP = qp.Num
	pkt.Opcode = packet.OpAtomicResp
	pkt.PSN = psn
	pkt.AckPSN = psn
	pkt.Syndrome = packet.SynACK
	pkt.AtomicOrig = orig
	qp.rnic.Port.Send(pkt)
}

// handleAtomicResp completes the matching atomic request, delivering the
// original value through the CQE.
func (qp *QP) handleAtomicResp(pkt *packet.Packet) {
	if qp.paused {
		qp.Stats.ResponsesDiscarded++
		return
	}
	o := qp.findOut(pkt.PSN)
	if o == nil {
		return
	}
	// Complete everything up to the atomic, tagging its CQE with the
	// returned value.
	qp.pendingAtomicOrig = pkt.AtomicOrig
	qp.completeThrough(o)
}
