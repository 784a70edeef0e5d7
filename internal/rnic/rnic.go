package rnic

import (
	"fmt"

	"odpsim/internal/congestion"
	"odpsim/internal/fabric"
	"odpsim/internal/hostmem"
	"odpsim/internal/irn"
	"odpsim/internal/npr"
	"odpsim/internal/odp"
	"odpsim/internal/packet"
	"odpsim/internal/sim"
	"odpsim/internal/telemetry"
)

// MemKind says how a memory range is translated for DMA: pinned up
// front, faulted on demand by the NIC (ODP), or migrated on demand by
// the driver through the NP-RDMA pool.
type MemKind uint8

const (
	KindPinned MemKind = iota
	KindODP
	KindNPR
)

func (k MemKind) String() string {
	switch k {
	case KindODP:
		return "odp"
	case KindNPR:
		return "npr"
	default:
		return "pin"
	}
}

// MR is a registered memory region.
type MR struct {
	Key  uint32
	Addr hostmem.Addr
	Len  int
	// ODP marks an on-demand-paging registration: no pinning, network
	// page faults on access.
	ODP bool
	// NPR marks an NP-RDMA registration: no pinning either, but
	// translation goes through the driver's shadow table and bounded
	// DMA-able pool instead of NIC page faults.
	NPR bool
}

// Kind returns the region's translation kind.
func (m *MR) Kind() MemKind {
	switch {
	case m.NPR:
		return KindNPR
	case m.ODP:
		return KindODP
	default:
		return KindPinned
	}
}

// Contains reports whether the byte range lies inside the region.
func (m *MR) Contains(addr hostmem.Addr, length int) bool {
	return addr >= m.Addr && addr+hostmem.Addr(length) <= m.Addr+hostmem.Addr(m.Len)
}

// RNIC is one adapter: an address space, an ODP engine, a fabric port and
// a set of queue pairs.
type RNIC struct {
	Name string
	eng  *sim.Engine
	AS   *hostmem.AddressSpace
	ODP  *odp.Engine
	Port *fabric.Port
	prof Profile
	// pool is the fabric's packet pool: every transmit packet is drawn
	// from it and returns to it after final delivery or drop.
	pool *packet.Pool

	// qps is the RC dispatch table indexed by QPN. QPNs are handed out
	// densely from nextQPN (shared with UD QPs), so the slots of QPN 0
	// and of UD QPNs stay nil; lookups go through rcQP.
	qps         []*QP
	udqps       map[uint32]*UDQP
	mrs         []*MR
	nextQPN     uint32
	nextKey     uint32
	implicitODP bool
	// npr, when non-nil, is the NP-RDMA driver pool (EnableNPR) and the
	// device's managed registrations translate through it instead of the
	// ODP fault engine; forcePinned makes managed registrations pin.
	npr         *npr.Pool
	forcePinned bool
	// busyQPs counts QPs with outstanding requests (the load signal for
	// the §VI-C timeout-lengthening effect).
	busyQPs int
	// DCQCN state (EnableDCQCN): dcqcn holds the loop parameters, and
	// lineGbps is the port rate new QPs' rate limiters start at.
	dcqcnOn  bool
	dcqcn    congestion.DCQCNConfig
	lineGbps float64
	// IRN state (EnableIRN): every QP created afterwards runs the
	// selective-repeat transport with irnBDP as its injection cap.
	irnOn  bool
	irnBDP int
	// tel is the device's counter registry — the simulator's equivalent
	// of /sys/class/infiniband/<dev>. The exported counter fields below
	// are its live storage (pointer-backed), so reading them directly
	// and scraping the registry always agree.
	tel *telemetry.Registry

	// Counters.
	DammedDrops       uint64 // requests discarded by the damming quirk
	RNRNakSent        uint64
	NakSeqSent        uint64 // out_of_sequence: OOS arrivals NAKed by the responder
	ReadsExecuted     uint64
	WritesExecuted    uint64
	AtomicsExecuted   uint64
	DuplicateRequests uint64 // already-executed requests re-received
	OutOfBuffer       uint64 // RNR NAKs caused by an empty receive queue
	// DCQCN counters (registered by EnableDCQCN): notification-point
	// marks seen and CNPs sent, reaction-point CNPs handled.
	EcnMarked  uint64
	CnpSent    uint64
	CnpHandled uint64
	// IRN counters (registered by EnableIRN): responder SACKs and
	// out-of-order landings, requester BDP stalls and selective
	// retransmissions.
	SackSent   uint64
	OooLanded  uint64
	BdpStalls  uint64
	IrnRetrans uint64
	// wcByStatus counts work completions per WCStatus.
	wcByStatus [numWCStatuses]uint64
}

// New creates an RNIC attached to fab at the given LID, with its own
// address space.
func New(fab *fabric.Fabric, lid uint16, name string, prof Profile, memCfg hostmem.Config) *RNIC {
	eng := fab.Engine()
	as := hostmem.NewAddressSpace(eng, memCfg)
	r := &RNIC{
		Name:    name,
		eng:     eng,
		AS:      as,
		ODP:     odp.New(as, prof.ODP),
		prof:    prof,
		pool:    fab.Pool(),
		tel:     telemetry.NewRegistryOn(eng, name, telemetry.Labels{"device": name}),
		nextQPN: 1,
		nextKey: 1,
	}
	r.registerMetrics()
	r.ODP.RegisterMetrics(r.tel)
	r.Port = fab.AttachPort(lid, name, r.receive)
	r.Port.RegisterMetrics(r.tel)
	return r
}

// Telemetry returns the device's counter registry.
func (r *RNIC) Telemetry() *telemetry.Registry { return r.tel }

// EnableDCQCN turns on the DCQCN loop for this device: as a notification
// point it answers ECN-marked arrivals with CNPs (per-QP pacing window),
// and as a reaction point every QP created afterwards gets a rate
// limiter that CNPs cut. lineGbps is the port rate limiters start at.
// Call before creating QPs; the np_*/rp_* counters register here so
// devices without DCQCN keep their exact pre-existing metric set.
func (r *RNIC) EnableDCQCN(cfg congestion.DCQCNConfig, lineGbps float64) {
	if r.dcqcnOn {
		panic("rnic: EnableDCQCN called twice")
	}
	r.dcqcnOn = true
	r.dcqcn = cfg.WithDefaults()
	r.lineGbps = lineGbps
	r.tel.Counter(telemetry.NpEcnMarked, "ECN-marked packets received (notification point)", nil, &r.EcnMarked)
	r.tel.Counter(telemetry.NpCnpSent, "CNPs sent by the notification point", nil, &r.CnpSent)
	r.tel.Counter(telemetry.RpCnpHandled, "CNPs handled by the reaction point (rate cuts)", nil, &r.CnpHandled)
}

// EnableNPR turns on the NP-RDMA no-pinning mode for this device: a
// bounded DMA-able pool plus a driver-maintained shadow translation
// table replaces the NIC page-fault path for managed registrations.
// Call before registering memory; the npr_* counters register here so
// devices without NPR keep their exact pre-existing metric set.
func (r *RNIC) EnableNPR(cfg npr.Config) {
	if r.npr != nil {
		panic("rnic: EnableNPR called twice")
	}
	if r.forcePinned {
		panic("rnic: EnableNPR after ForcePinned")
	}
	r.npr = npr.New(r.AS, cfg)
	r.npr.RegisterMetrics(r.tel)
}

// ForcePinned makes RegisterManagedMR pin instead of using ODP — the
// `memory: pin` end of the pin|odp|npr comparison.
func (r *RNIC) ForcePinned() {
	if r.npr != nil {
		panic("rnic: ForcePinned after EnableNPR")
	}
	r.forcePinned = true
}

// NPR returns the device's NP-RDMA pool, or nil when NPR is off.
func (r *RNIC) NPR() *npr.Pool { return r.npr }

// registerMetrics publishes the device-level counters under the
// hw_counter vocabulary (plus sim_* names for quantities real hardware
// does not export).
func (r *RNIC) registerMetrics() {
	r.tel.Counter(telemetry.OutOfSequence, "out-of-order request arrivals NAKed by the responder", nil, &r.NakSeqSent)
	r.tel.Counter(telemetry.DuplicateRequest, "already-executed requests re-received by the responder", nil, &r.DuplicateRequests)
	r.tel.Counter(telemetry.OutOfBuffer, "responder RNR NAKs caused by an empty receive queue", nil, &r.OutOfBuffer)
	r.tel.Counter(telemetry.RxReadRequests, "RDMA READ requests executed by the responder", nil, &r.ReadsExecuted)
	r.tel.Counter(telemetry.RxWriteRequests, "RDMA WRITE requests executed by the responder", nil, &r.WritesExecuted)
	r.tel.Counter(telemetry.RxAtomicRequests, "atomic requests executed by the responder", nil, &r.AtomicsExecuted)
	r.tel.Counter(telemetry.SimRNRNakSent, "RNR NAKs sent for any cause (ODP miss or empty RQ)", nil, &r.RNRNakSent)
	r.tel.Counter(telemetry.SimDammedDrops, "requests silently discarded by the damming quirk (sim ground truth)", nil, &r.DammedDrops)
	statusLabel := telemetry.Labels{"status": ""} // rendered at add time, safe to reuse
	for s := 0; s < numWCStatuses; s++ {
		statusLabel["status"] = WCStatus(s).String()
		r.tel.Counter(telemetry.Completions, "work completions by status",
			statusLabel, &r.wcByStatus[s])
	}
}

// countWC tallies one work completion in the per-status counters.
func (r *RNIC) countWC(s WCStatus) {
	if int(s) >= 0 && int(s) < numWCStatuses {
		r.wcByStatus[s]++
	}
}

// Engine returns the simulation engine.
func (r *RNIC) Engine() *sim.Engine { return r.eng }

// Profile returns the device profile.
func (r *RNIC) Profile() Profile { return r.prof }

// LID returns the port LID.
func (r *RNIC) LID() uint16 { return r.Port.LID }

// EnableImplicitODP turns on Implicit ODP: the whole address space is
// accessible through on-demand paging without explicit registration.
func (r *RNIC) EnableImplicitODP() { r.implicitODP = true }

// RegisterMR registers a conventional (pinned) memory region, paying the
// per-page pinning cost in bookkeeping (the time cost is returned so a
// caller process can charge it).
func (r *RNIC) RegisterMR(addr hostmem.Addr, length int) (*MR, sim.Time) {
	cost := r.AS.Pin(addr, length)
	mr := &MR{Key: r.nextKey, Addr: addr, Len: length}
	r.nextKey++
	r.mrs = append(r.mrs, mr)
	return mr, cost
}

// RegisterODPMR registers an Explicit-ODP memory region: no pinning, and
// RDMA access triggers network page faults.
func (r *RNIC) RegisterODPMR(addr hostmem.Addr, length int) *MR {
	mr := &MR{Key: r.nextKey, Addr: addr, Len: length, ODP: true}
	r.nextKey++
	r.mrs = append(r.mrs, mr)
	return mr
}

// RegisterNPRMR registers an NP-RDMA region: no pinning, and access
// translates through the driver's shadow table, migrating cold pages
// into the bounded pool on demand. Registration itself is free, like
// ODP — the cost moves to first touch as a translation stall.
func (r *RNIC) RegisterNPRMR(addr hostmem.Addr, length int) *MR {
	if r.npr == nil {
		panic("rnic: RegisterNPRMR without EnableNPR")
	}
	mr := &MR{Key: r.nextKey, Addr: addr, Len: length, NPR: true}
	r.nextKey++
	r.mrs = append(r.mrs, mr)
	return mr
}

// RegisterManagedMR registers according to the device's memory mode:
// pinned under ForcePinned (cost returned), NPR under EnableNPR, and
// Explicit ODP otherwise (both free at registration time). Every layer
// that used to choose between RegisterMR and RegisterODPMR by an ODP
// flag funnels through here, which is what makes `memory: pin|odp|npr`
// a per-node switch instead of a per-callsite one.
func (r *RNIC) RegisterManagedMR(addr hostmem.Addr, length int) (*MR, sim.Time) {
	switch {
	case r.forcePinned:
		return r.RegisterMR(addr, length)
	case r.npr != nil:
		return r.RegisterNPRMR(addr, length), 0
	default:
		return r.RegisterODPMR(addr, length), 0
	}
}

// AdviseMR prefetches ODP translations for the range into qp's context,
// modelling ibv_advise_mr(IBV_ADVISE_MR_ADVICE_PREFETCH): the faults run
// through the same serial pipeline, but before traffic needs them. Li et
// al. found receiver-side prefetching effective; it is also a packet-flood
// avoidance measure, since prefetched pairs never go stale mid-transfer.
func (r *RNIC) AdviseMR(qpn uint32, addr hostmem.Addr, length int) {
	r.ODP.Prefetch(qpn, addr, length)
}

// DeregisterMR removes a region, unpinning conventional registrations.
func (r *RNIC) DeregisterMR(mr *MR) {
	for i, m := range r.mrs {
		if m == mr {
			r.mrs = append(r.mrs[:i], r.mrs[i+1:]...)
			if !mr.ODP && !mr.NPR {
				r.AS.Unpin(mr.Addr, mr.Len)
			}
			return
		}
	}
	panic("rnic: DeregisterMR of unknown MR")
}

// lookupMR finds a registration covering the range. ok is false when
// the range is not registered and implicit registration is off; kind
// reports how the covering registration translates. Under implicit ODP
// the fallback kind follows the device's memory mode, so an
// NPR-enabled node's implicit ranges go through the shadow table too.
func (r *RNIC) lookupMR(addr hostmem.Addr, length int) (kind MemKind, ok bool) {
	for _, m := range r.mrs {
		if m.Contains(addr, length) {
			return m.Kind(), true
		}
	}
	if r.implicitODP {
		if r.npr != nil {
			return KindNPR, true
		}
		return KindODP, true
	}
	return KindPinned, false
}

// CreateQP creates a queue pair bound to the completion queues.
func (r *RNIC) CreateQP(sendCQ, recvCQ *CQ) *QP {
	qp := &QP{
		rnic:   r,
		Num:    r.nextQPN,
		sendCQ: sendCQ,
		recvCQ: recvCQ,
	}
	qp.onTimeoutFn = qp.onTimeout
	qp.resumeFn = qp.resumePending
	if r.dcqcnOn {
		qp.rate = congestion.NewRateStateOn(r.eng, r.dcqcn, r.lineGbps)
	}
	if r.irnOn {
		qp.irn = irn.StateFor(r.eng)
		qp.irn.RB.Init(0)
		qp.irn.TX.Init(r.irnBDP, 0)
	}
	r.nextQPN++
	for uint32(len(r.qps)) < qp.Num {
		r.qps = append(r.qps, nil)
	}
	r.qps = append(r.qps, qp)
	qp.registerMetrics(r.tel)
	return qp
}

// rcQP returns the RC QP numbered qpn, or nil when there is none (QPN
// 0, a UD QPN, or one never handed out).
func (r *RNIC) rcQP(qpn uint32) *QP {
	if qpn < uint32(len(r.qps)) {
		return r.qps[qpn]
	}
	return nil
}

// receive dispatches an arriving packet to the destination QP, on the
// requester or responder path depending on the opcode. With DCQCN on,
// the device also acts as notification point (ECN-marked arrivals are
// answered with CNPs) and reaction point (CNPs cut the target QP's
// rate) before normal dispatch.
func (r *RNIC) receive(pkt *packet.Packet) {
	if pkt.Opcode == packet.OpCNP {
		if qp := r.rcQP(pkt.DestQP); qp != nil && qp.rate != nil {
			r.CnpHandled++
			qp.rate.HandleCNP()
		}
		return
	}
	if pkt.ECN && r.dcqcnOn {
		r.EcnMarked++
		r.maybeSendCNP(pkt)
	}
	if pkt.Opcode == packet.OpUDSend {
		if udqp, ok := r.udqps[pkt.DestQP]; ok {
			udqp.receive(pkt)
		}
		return
	}
	qp := r.rcQP(pkt.DestQP)
	if qp == nil {
		return // no such QP: silently dropped, like real hardware
	}
	if pkt.Opcode.IsRequest() {
		qp.responderReceive(pkt)
	} else {
		qp.requesterReceive(pkt)
	}
}

// maybeSendCNP answers an ECN-marked packet with a Congestion
// Notification Packet to its sender, rate-limited per destination QP by
// the notification-point pacing window (one CNP per MinCNPInterval, as
// the mlx5 N_CNP timer does).
func (r *RNIC) maybeSendCNP(marked *packet.Packet) {
	qp := r.rcQP(marked.DestQP)
	if qp == nil {
		return
	}
	now := r.eng.Now()
	if qp.lastCNP > 0 && now-qp.lastCNP < r.dcqcn.MinCNPInterval {
		return
	}
	qp.lastCNP = now
	cnp := r.pool.Get()
	cnp.Opcode = packet.OpCNP
	cnp.DLID = marked.SLID
	cnp.DestQP = marked.SrcQP
	cnp.SrcQP = marked.DestQP
	r.CnpSent++
	r.Port.Send(cnp)
}

// ConnectPair wires two QPs into one Reliable Connection with symmetric
// parameters, the way the benchmark's init phase exchanges QP numbers and
// LIDs out of band.
func ConnectPair(a, b *QP, pa, pb ConnParams) {
	a.Connect(b.rnic.LID(), b.Num, pa)
	b.Connect(a.rnic.LID(), a.Num, pb)
}

// String implements fmt.Stringer.
func (r *RNIC) String() string {
	return fmt.Sprintf("%s(%s, LID %d)", r.Name, r.prof.Name, r.Port.LID)
}
