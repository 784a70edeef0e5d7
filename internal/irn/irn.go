// Package irn implements the protocol core of an IRN-style selective
// repeat RC transport ("Revisiting Network Support for RDMA", Mittal et
// al.): selective acknowledgement via a cumulative ACK plus a reception
// bitmap, a bounded responder-side reorder buffer that lets packets land
// out of order while execution stays in ePSN order, and BDP-bounded
// injection so the sender never relies on PFC backpressure. The rnic
// layer owns queue pairs, completion queues and memory; this package
// owns the per-QP transport state machines and their arena.
package irn

import (
	"odpsim/internal/packet"
	"odpsim/internal/sim"
)

// Window is the reorder window in PSNs: the responder accepts arrivals
// up to Window-1 ahead of ePSN, and the requester keeps its outstanding
// PSN span below it. 64 matches the SACK bitmap width.
const Window = 64

// Config parameterizes the transport. The zero value takes defaults.
type Config struct {
	// LineGbps is the edge link rate the BDP is computed against.
	LineGbps float64
	// BaseRTT is the unloaded round-trip time for the BDP product.
	BaseRTT sim.Time
	// BDPBytes overrides the computed bandwidth×delay cap when > 0.
	BDPBytes int
}

// DefaultBaseRTT is the unloaded RTT assumed when a config does not
// specify one: a few switch hops of propagation plus MTU serialization,
// in the regime of the clusters the paper measures.
const DefaultBaseRTT = 6 * sim.Microsecond

// EffectiveBDP resolves the injection cap in bytes.
func (c Config) EffectiveBDP() int {
	if c.BDPBytes > 0 {
		return c.BDPBytes
	}
	rtt := c.BaseRTT
	if rtt <= 0 {
		rtt = DefaultBaseRTT
	}
	gbps := c.LineGbps
	if gbps <= 0 {
		gbps = 100
	}
	return int(gbps / 8 * float64(rtt)) // Gbit/s ÷ 8 = bytes per ns
}

// Disposition classifies an arriving request PSN against the reorder
// buffer.
type Disposition int

// Arrival dispositions.
const (
	// InOrder: psn == ePSN; execute now, then sweep the buffer.
	InOrder Disposition = iota
	// Duplicate: already received (below ePSN or stashed); re-ACK only.
	Duplicate
	// OutOfOrder: lands inside the window above ePSN; stash and SACK.
	OutOfOrder
	// BeyondWindow: past the reorder window; drop (a conforming
	// requester's BDP/span cap keeps this from happening).
	BeyondWindow
)

// ReorderBuffer is the responder-side bounded reorder buffer. Bit i of
// mask means PSN ePSN+i has been received and stashed (bit 0 is never
// set: an in-order arrival executes immediately and a head that faults
// is dropped and NAKed, not stashed). Stashed packets are stored by
// value — the wire packet goes back to its pool at the end of the
// receive callback, per the §8 ownership contract.
type ReorderBuffer struct {
	epsn  uint32
	mask  uint64
	slots [Window]packet.Packet
}

// Init points the buffer at the connection's starting ePSN.
func (rb *ReorderBuffer) Init(epsn uint32) {
	rb.epsn = epsn
	rb.mask = 0
}

// EPSN returns the next PSN the responder will execute.
func (rb *ReorderBuffer) EPSN() uint32 { return rb.epsn }

// Buffered returns how many packets are stashed out of order.
func (rb *ReorderBuffer) Buffered() int {
	n := 0
	for m := rb.mask; m != 0; m &= m - 1 {
		n++
	}
	return n
}

// Classify places an arriving PSN relative to ePSN and the window.
func (rb *ReorderBuffer) Classify(psn uint32) Disposition {
	d := packet.PSNDiff(psn, rb.epsn)
	switch {
	case d == 0:
		return InOrder
	case d < 0:
		return Duplicate
	case d < Window:
		if rb.mask&(1<<uint(d)) != 0 {
			return Duplicate
		}
		return OutOfOrder
	default:
		return BeyondWindow
	}
}

// Stash copies an out-of-order packet into its slot. Call only after
// Classify returned OutOfOrder.
func (rb *ReorderBuffer) Stash(pkt *packet.Packet) {
	d := packet.PSNDiff(pkt.PSN, rb.epsn)
	rb.mask |= 1 << uint(d)
	rb.slots[pkt.PSN%Window] = *pkt
}

// Advance moves ePSN past n executed PSNs (n > 1 for multi-PSN READs).
func (rb *ReorderBuffer) Advance(n int) {
	rb.epsn = packet.PSNAdd(rb.epsn, n)
	if n >= Window {
		rb.mask = 0
	} else {
		rb.mask >>= uint(n)
	}
}

// Head returns the stashed packet now at ePSN, if the gap just filled.
// The pointer aliases slot storage: the caller must finish executing it
// (and call Advance) before the next Stash.
func (rb *ReorderBuffer) Head() (*packet.Packet, bool) {
	if rb.mask&1 == 0 {
		return nil, false
	}
	return &rb.slots[rb.epsn%Window], true
}

// DropHead discards the stashed packet at ePSN without executing it
// (the per-packet RNR NAK path: the requester will retransmit it).
func (rb *ReorderBuffer) DropHead() { rb.mask &^= 1 }

// Sack returns the wire SACK block: base is the first missing PSN
// (ePSN) and bit i of the bitmap means PSN base+i was received out of
// order (bit 0 is always clear).
func (rb *ReorderBuffer) Sack() (base uint32, bitmap uint64) {
	return rb.epsn, rb.mask
}

// TxAccount is the requester-side injection governor: it tracks
// outstanding wire bytes against the BDP cap and the outstanding PSN
// span against the reorder window. Bytes are recorded per PSN so
// cumulative ACKs and selective completions free exactly what a packet
// charged.
type TxAccount struct {
	bdp   int
	bytes int
	inUse [Window]int32 // outstanding bytes charged per PSN%Window slot
	base  uint32        // oldest un-completed PSN
	next  uint32        // next PSN to be assigned
}

// Init arms the account with the BDP cap and the connection's first PSN.
func (tx *TxAccount) Init(bdpBytes int, firstPSN uint32) {
	tx.bdp = bdpBytes
	tx.bytes = 0
	tx.base = firstPSN
	tx.next = firstPSN
	for i := range tx.inUse {
		tx.inUse[i] = 0
	}
}

// Outstanding returns the bytes currently charged against the cap.
func (tx *TxAccount) Outstanding() int { return tx.bytes }

// CanSend reports whether a message spanning npsn PSNs and costing
// bytes on the wire fits under both the BDP cap and the window span.
// A message sent with nothing outstanding is always admitted, so
// neither a cap smaller than one MTU nor a READ spanning more than
// Window PSNs can deadlock the QP.
func (tx *TxAccount) CanSend(bytes, npsn int) bool {
	if tx.next == tx.base {
		return true
	}
	if packet.PSNDiff(packet.PSNAdd(tx.next, npsn), tx.base) > Window {
		return false
	}
	return tx.bytes == 0 || tx.bytes+bytes <= tx.bdp
}

// OnSend charges a message occupying [psn, psn+npsn) for bytes. The
// charge lands on the first PSN (the wire packet; for READs the span
// reserves response PSNs that carry no charge of their own).
func (tx *TxAccount) OnSend(psn uint32, npsn, bytes int) {
	tx.inUse[psn%Window] += int32(bytes)
	tx.bytes += bytes
	if end := packet.PSNAdd(psn, npsn); packet.PSNLess(tx.next, end) {
		tx.next = end
	}
}

// Complete releases every charge in [base, upto) and advances base.
// Call when a request's span is fully acknowledged.
func (tx *TxAccount) Complete(upto uint32) {
	for packet.PSNLess(tx.base, upto) {
		tx.bytes -= int(tx.inUse[tx.base%Window])
		tx.inUse[tx.base%Window] = 0
		tx.base = packet.PSNAdd(tx.base, 1)
	}
	if tx.bytes < 0 {
		tx.bytes = 0
	}
}

// State bundles one QP's transport machines. Instances come from the
// engine-generation arena (StateFor) so trial loops that rebuild a
// cluster on a Reset engine reuse the buffers.
type State struct {
	RB ReorderBuffer
	TX TxAccount
}

// scratch is the per-engine arena of State objects, generation-claimed
// like the congestion layer's port/switch arenas: an Engine.Reset
// wholesale-frees last trial's grabs.
type scratch struct {
	gen  uint64
	all  []*State
	next int
}

const scratchKey = "irn.scratch"

// StateFor grabs a recycled per-QP State (or allocates the arena's next
// one) for the current engine generation.
func StateFor(eng *sim.Engine) *State {
	s, _ := eng.Aux(scratchKey).(*scratch)
	if s == nil {
		s = &scratch{}
		eng.SetAux(scratchKey, s)
	}
	if gen := eng.Generation() + 1; s.gen != gen {
		s.gen = gen
		s.next = 0
	}
	var st *State
	if s.next < len(s.all) {
		st = s.all[s.next]
		s.next++
	} else {
		st = &State{}
		s.all = append(s.all, st)
		s.next = len(s.all)
	}
	return st
}
