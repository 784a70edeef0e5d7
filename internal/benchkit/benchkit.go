// Package benchkit holds the benchmark fixtures: each loop body the
// root package's benchmarks and alloc-budget tests measure, and that
// `odpperf -write-bench` snapshots into BENCH_baseline.json, is defined
// once here. A fixture takes its engine, seed and size from the caller,
// so every caller keeps its own loop shape (event count, grid, trial
// count, seed sequence) while sharing the body.
package benchkit

import (
	"odpsim/internal/cluster"
	"odpsim/internal/congestion"
	"odpsim/internal/core"
	"odpsim/internal/fabric"
	"odpsim/internal/hostmem"
	"odpsim/internal/packet"
	"odpsim/internal/rnic"
	"odpsim/internal/shard"
	"odpsim/internal/sim"
)

// EngineLoop is the engine hot path alone: the RC requester's
// schedule-ACK-cancel pattern — each posted retransmit timer is
// cancelled before it fires — for events iterations on eng, Reset to
// seed. The free list and eager Cancel keep it allocation-flat.
func EngineLoop(eng *sim.Engine, seed int64, events int) {
	eng.Reset(seed)
	var pending sim.Timer
	for j := 0; j < events; j++ {
		pending.Cancel() // no-op on the zero Timer
		pending = eng.After(sim.Time(j+1)*sim.Microsecond, func() {})
		eng.After(sim.Time(j)*sim.Microsecond, func() {})
	}
	eng.Run()
}

// Fig4Sweep is the multi-trial Figure-4 sweep: the default two-READ
// micro-benchmark's execution time over posting intervals 0..6 ms at
// stepMs, trials per point, on the worker pool. It returns the series'
// Y values, which are identical for any worker count.
func Fig4Sweep(seed int64, stepMs float64, trials int) []float64 {
	base := core.DefaultBench()
	base.Seed = seed
	return core.SweepExecTime(base, core.IntervalRange(0, 6, stepMs), trials).Y
}

// Microbench is one default micro-benchmark run on eng — the per-trial
// cost inside every sweep.
func Microbench(eng *sim.Engine, seed int64) {
	cfg := core.DefaultBench()
	cfg.Eng = eng
	cfg.Seed = seed
	core.RunMicrobench(cfg)
}

// AnalyticBurst is the pooled packet datapath on the analytic fabric: a
// fabric rebuilt on eng (Reset to seed) and a packets-long send→deliver
// stream between two ports, everything drawn from the engine-generation
// arenas (DESIGN.md §8).
func AnalyticBurst(eng *sim.Engine, seed int64, packets int) {
	eng.Reset(seed)
	f := fabric.New(eng, fabric.DefaultConfig())
	src := f.AttachPort(1, "src", func(*packet.Packet) {})
	f.AttachPort(2, "dst", func(*packet.Packet) {})
	pool := f.Pool()
	for j := 0; j < packets; j++ {
		p := pool.Get()
		p.Opcode = packet.OpReadRequest
		p.DLID = 2
		p.PSN = uint32(j)
		src.Send(p)
	}
	eng.Run()
}

// ChainBurst is AnalyticBurst through the switched lossless-fabric
// stage: the two hosts sit on opposite edge switches with PFC on, so
// every packet crosses the 4×-oversubscribed inter-switch link and the
// host uplink is XOFF/XON-paused while the burst drains (DESIGN.md §9).
func ChainBurst(eng *sim.Engine, seed int64, packets int) {
	eng.Reset(seed)
	f := fabric.New(eng, fabric.DefaultConfig())
	src := f.AttachPort(1, "src", func(*packet.Packet) {})
	f.AttachPort(2, "dst", func(*packet.Packet) {})
	ccfg := congestion.DefaultConfig()
	ccfg.PFC = true
	f.EnableCongestion(ccfg)
	pool := f.Pool()
	for j := 0; j < packets; j++ {
		p := pool.Get()
		p.Opcode = packet.OpReadRequest
		p.DLID = 2
		p.PSN = uint32(j)
		src.Send(p)
	}
	eng.Run()
}

// ClosBurst is the send→deliver stream on a leaf-spine Clos (radix 4,
// 4× oversubscription). The topology is built once, in NewClosBurst,
// and reused by every trial, as a sweep reuses its scenario's topology.
type ClosBurst struct{ ccfg congestion.Config }

// NewClosBurst builds the Clos fabric configuration.
func NewClosBurst() *ClosBurst {
	c := &ClosBurst{ccfg: congestion.DefaultConfig()}
	c.ccfg.Topology = congestion.ClosTopology(2, 4, 4)
	c.ccfg.PFC = true
	c.ccfg.XOffBytes = 1 << 10
	c.ccfg.XOnBytes = 512
	return c
}

// Run rebuilds the Clos fabric on eng (Reset to seed) with eight hosts
// round-robin across the four leaves and sends packets from leaves 0..3
// to the other replica on each leaf: every flow crosses a spine, so the
// per-switch CSR tables and seeded-hash ECMP are on the measured path.
func (c *ClosBurst) Run(eng *sim.Engine, seed int64, packets int) {
	eng.Reset(seed)
	f := fabric.New(eng, fabric.DefaultConfig())
	ports := make([]*fabric.Port, 8)
	for lid := uint16(1); lid <= 8; lid++ {
		ports[lid-1] = f.AttachPort(lid, "host", func(*packet.Packet) {})
	}
	f.EnableCongestion(c.ccfg)
	pool := f.Pool()
	for j := 0; j < packets; j++ {
		p := pool.Get()
		p.Opcode = packet.OpReadRequest
		p.DLID = uint16(5 + (j+1)%4)
		p.PSN = uint32(j)
		ports[j%4].Send(p)
	}
	eng.Run()
}

// Sharded is the bounded-lag shard layer fixture: pod cells (a radix-4
// PodTopology with 8 hosts each) on per-pod engines, joined through a
// shard.Group by digest links converging on pod 0 — the fabric-level
// skeleton of the kv-serve scenario, without the RNIC stack on top.
type Sharded struct {
	g       *shard.Group
	engs    []*sim.Engine
	links   []*shard.Link // digest link into pod 0 (nil at index 0)
	ccfg    congestion.Config
	digests int
}

// NewSharded builds pods pod engines on a group of lanes worker lanes.
func NewSharded(pods, lanes int) *Sharded {
	s := &Sharded{g: shard.NewGroup(lanes)}
	s.ccfg = congestion.DefaultConfig()
	s.ccfg.Topology = congestion.PodTopology(4, 4)
	s.ccfg.PFC = true
	s.ccfg.XOffBytes = 1 << 10
	s.ccfg.XOnBytes = 512
	ds := make([]*shard.Domain, pods)
	for p := 0; p < pods; p++ {
		eng := sim.New(int64(p + 1))
		s.engs = append(s.engs, eng)
		ds[p] = s.g.AddDomain(eng)
	}
	s.links = make([]*shard.Link, pods)
	for p := 1; p < pods; p++ {
		s.links[p] = s.g.Connect(ds[p], ds[0], 25, 2*sim.Microsecond)
	}
	ds[0].OnFlight(func(shard.Flight) { s.digests++ })
	return s
}

// Trial rebuilds every pod's fabric on its engine, Reset to seed plus
// the pod index (the arenas recycle across the generation bump), fires
// a packets-long cross-edge burst inside each pod with a digest flight
// to pod 0 every 256 deliveries, and runs the group to completion.
func (s *Sharded) Trial(seed int64, packets int) {
	s.digests = 0
	s.g.Rewind()
	for p, eng := range s.engs {
		eng.Reset(seed + int64(p))
		f := fabric.New(eng, fabric.DefaultConfig())
		link := s.links[p]
		delivered := 0
		ports := make([]*fabric.Port, 8)
		for lid := uint16(1); lid <= 8; lid++ {
			ports[lid-1] = f.AttachPort(lid, "host", func(*packet.Packet) {
				delivered++
				if link != nil && delivered%256 == 0 {
					link.Send(shard.Flight{Len: 64, Arg: uint64(delivered)})
				}
			})
		}
		f.EnableCongestion(s.ccfg)
		pool := f.Pool()
		for j := 0; j < packets; j++ {
			pkt := pool.Get()
			pkt.Opcode = packet.OpReadRequest
			pkt.DLID = uint16(5 + (j+1)%4)
			pkt.PSN = uint32(j)
			ports[j%4].Send(pkt)
		}
	}
	s.g.Run()
}

// Digests is the number of digest flights the last trial delivered to
// pod 0.
func (s *Sharded) Digests() int { return s.digests }

// Fingerprint is the last trial's deterministic observable: the digest
// count and every pod engine's final clock. Equal fingerprints at two
// lane counts is the byte-identity contract at this layer.
func (s *Sharded) Fingerprint() []int64 {
	fp := []int64{int64(s.digests)}
	for _, eng := range s.engs {
		fp = append(fp, int64(eng.Now()))
	}
	return fp
}

// IRNCluster is the IRN selective-repeat datapath fixture: a two-node
// KNL cluster on the irn transport over a 10%-lossy fabric.
type IRNCluster struct{ sys cluster.System }

// NewIRNCluster declares the lossy IRN system.
func NewIRNCluster() *IRNCluster {
	sys := cluster.KNL()
	sys.LossRate = 0.1
	sys.Transport = "irn"
	return &IRNCluster{sys: sys}
}

// Trial rebuilds the cluster on eng with seed and floods writes
// pinned-memory 512-byte WRITEs, so drops exercise the SACK,
// reorder-buffer and single-PSN retransmit paths. It returns the
// client's CQ, which holds one completion per WRITE.
func (x *IRNCluster) Trial(eng *sim.Engine, seed int64, writes int) *rnic.CQ {
	cl := x.sys.BuildOn(eng, seed, 2)
	client, server := cl.Nodes[0], cl.Nodes[1]
	const size = 512
	lbuf := client.AS.Alloc(writes * size)
	rbuf := server.AS.Alloc(writes * size)
	client.AS.Touch(lbuf, writes*size)
	server.AS.Touch(rbuf, writes*size)
	client.RegisterMR(lbuf, writes*size)
	server.RegisterMR(rbuf, writes*size)
	cq := rnic.NewCQ(cl.Eng)
	scq := rnic.NewCQ(cl.Eng)
	params := rnic.ConnParams{CACK: 8, RetryCount: 7, MinRNRDelay: sim.FromMillis(1.28)}
	qc := client.CreateQP(cq, cq)
	qs := server.CreateQP(scq, scq)
	rnic.ConnectPair(qc, qs, params, params)
	for j := 0; j < writes; j++ {
		off := hostmem.Addr(j * size)
		qc.PostSend(rnic.SendWR{ID: uint64(j), Op: rnic.OpWrite,
			LocalAddr: lbuf + off, RemoteAddr: rbuf + off, Len: size})
	}
	cl.Eng.Run()
	return cq
}
