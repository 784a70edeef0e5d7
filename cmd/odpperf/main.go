// Command odpperf is the simulator's perftest: ib_read_lat / ib_read_bw
// equivalents with the ODP options the real suite lacks.
//
//	odpperf -test lat -size 8                     # pinned READ latency
//	odpperf -test lat -mode server                # ODP first-access penalty
//	odpperf -test lat -mode server -prefetch      # …removed by prefetch
//	odpperf -test bw -size 4096 -window 16        # pipelined bandwidth
//	odpperf -test compare                         # all modes side by side
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"testing"
	"time"

	"odpsim/internal/cluster"
	"odpsim/internal/congestion"
	"odpsim/internal/core"
	"odpsim/internal/fabric"
	"odpsim/internal/hostmem"
	"odpsim/internal/packet"
	"odpsim/internal/parallel"
	"odpsim/internal/rnic"
	"odpsim/internal/scenario"
	_ "odpsim/internal/scenario/paper"
	"odpsim/internal/shard"
	"odpsim/internal/sim"
)

func main() {
	test := flag.String("test", "lat", "lat, bw, or compare")
	writeBench := flag.String("write-bench", "", "write a perf snapshot (sequential-vs-parallel sweep wall clock, engine event-loop ns/op and allocs/op) as JSON to FILE, e.g. BENCH_baseline.json, and exit")
	checkBench := flag.String("check-bench", "", "measure a fresh snapshot, compare it against the baseline JSON in FILE, and exit non-zero on a regression beyond the noise band")
	size := flag.Int("size", 8, "message size in bytes")
	iters := flag.Int("iters", 1000, "iterations")
	mode := flag.String("mode", "none", "ODP mode: none, server, client, both")
	implicit := flag.Bool("implicit", false, "use Implicit ODP")
	prefetch := flag.Bool("prefetch", false, "prefetch ODP pages (ibv_advise_mr)")
	window := flag.Int("window", 16, "outstanding operations (bw)")
	pages := flag.Int("pages", 0, "rotate over this many pages (0 = one slot)")
	system := flag.String("system", "KNL (Private servers B)", "system profile")
	seed := flag.Int64("seed", 1, "seed")
	flag.Parse()

	if *writeBench != "" {
		if err := writeBenchFile(*writeBench); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *checkBench != "" {
		if err := checkBenchFile(*checkBench); err != nil {
			log.Fatal(err)
		}
		return
	}

	// The measurement paths are a thin wrapper over the scenario layer's
	// "perftest" workload (renderer = -test); the same run is declarable
	// as a JSON spec for `odpsim run`.
	m := *mode
	if m == "none" {
		m = "" // the workload's default
	}
	sc := scenario.Scenario{
		Name:     "perf",
		Workload: "perftest",
		Renderer: *test,
		System:   *system,
		Seed:     *seed,
		Size:     *size,
		Ops:      *iters,
		Mode:     m,
		Implicit: *implicit,
		Prefetch: *prefetch,
		Window:   *window,
		Pages:    *pages,
	}
	if err := scenario.Run(sc, os.Stdout, scenario.Options{}); err != nil {
		log.Fatal(err)
	}
}

// benchReport is the BENCH_baseline.json schema: one snapshot of the sweep
// runner's wall-clock behaviour and the engine hot path's per-event cost,
// tracked across PRs.
type benchReport struct {
	GOMAXPROCS int `json:"gomaxprocs"`
	Jobs       int `json:"jobs"`
	Sweep      struct {
		Name         string  `json:"name"`
		Points       int     `json:"points"`
		Trials       int     `json:"trials"`
		SequentialNs int64   `json:"sequential_ns"`
		ParallelNs   int64   `json:"parallel_ns"`
		Speedup      float64 `json:"speedup"`
		Identical    bool    `json:"identical"`
	} `json:"sweep"`
	Engine struct {
		Name          string  `json:"name"`
		NsPerEvent    float64 `json:"ns_per_event"`
		AllocsPerLoop int64   `json:"allocs_per_loop"`
	} `json:"engine"`
	Microbench struct {
		Name    string `json:"name"`
		NsPerOp int64  `json:"ns_per_op"`
		Allocs  int64  `json:"allocs_per_op"`
	} `json:"microbench"`
	Datapath struct {
		Name          string  `json:"name"`
		NsPerSend     float64 `json:"ns_per_send"`
		AllocsPerLoop int64   `json:"allocs_per_loop"`
	} `json:"datapath"`
	Congested struct {
		Name          string  `json:"name"`
		NsPerSend     float64 `json:"ns_per_send"`
		AllocsPerLoop int64   `json:"allocs_per_loop"`
	} `json:"congested"`
	Sharded struct {
		Name          string  `json:"name"`
		Pods          int     `json:"pods"`
		Shards1Ns     int64   `json:"shards1_ns"`
		Shards8Ns     int64   `json:"shards8_ns"`
		Speedup       float64 `json:"speedup"`
		Identical     bool    `json:"identical"`
		AllocsPerLoop int64   `json:"allocs_per_loop"`
	} `json:"sharded"`
	IRN struct {
		Name          string `json:"name"`
		NsPerOp       int64  `json:"ns_per_op"`
		AllocsPerLoop int64  `json:"allocs_per_loop"`
	} `json:"irn"`
}

// shardedHarness is the odpperf copy of the BenchmarkShardedIncast
// fixture: eight radix-4 pod cells on per-pod engines, joined through a
// shard.Group by digest links into pod 0. One trial rebuilds the fabrics
// on Reset engines, fires a 4096-packet burst per pod and runs the
// group; the shards=8/shards=1 wall-clock ratio is the scale-out row.
type shardedHarness struct {
	g       *shard.Group
	engs    []*sim.Engine
	links   []*shard.Link
	ccfg    congestion.Config
	digests int
}

func newShardedHarness(pods, lanes int) *shardedHarness {
	h := &shardedHarness{g: shard.NewGroup(lanes)}
	h.ccfg = congestion.DefaultConfig()
	h.ccfg.Topology = congestion.PodTopology(4, 4)
	h.ccfg.PFC = true
	h.ccfg.XOffBytes = 1 << 10
	h.ccfg.XOnBytes = 512
	ds := make([]*shard.Domain, pods)
	for p := 0; p < pods; p++ {
		eng := sim.New(int64(p + 1))
		h.engs = append(h.engs, eng)
		ds[p] = h.g.AddDomain(eng)
	}
	h.links = make([]*shard.Link, pods)
	for p := 1; p < pods; p++ {
		h.links[p] = h.g.Connect(ds[p], ds[0], 25, 2*sim.Microsecond)
	}
	ds[0].OnFlight(func(shard.Flight) { h.digests++ })
	return h
}

func (h *shardedHarness) trial(seed int64) {
	h.digests = 0
	h.g.Rewind()
	for p, eng := range h.engs {
		eng.Reset(seed + int64(p))
		f := fabric.New(eng, fabric.DefaultConfig())
		link := h.links[p]
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
		f.EnableCongestion(h.ccfg)
		pool := f.Pool()
		for j := 0; j < 4096; j++ {
			pkt := pool.Get()
			pkt.Opcode = packet.OpReadRequest
			pkt.DLID = uint16(5 + (j+1)%4)
			pkt.PSN = uint32(j)
			ports[j%4].Send(pkt)
		}
	}
	h.g.Run()
}

// fingerprint is the trial's deterministic observable: the digest count
// and every pod engine's final clock. Identical fingerprints at both
// lane counts is the byte-identity contract at this layer.
func (h *shardedHarness) fingerprint() []int64 {
	fp := []int64{int64(h.digests)}
	for _, eng := range h.engs {
		fp = append(fp, int64(eng.Now()))
	}
	return fp
}

// measureBench runs every tracked benchmark — the multi-trial Figure-4
// sweep sequentially and with the full worker pool, plus the engine,
// microbench and datapath loops — and returns one snapshot. Both
// -write-bench (record) and -check-bench (compare) consume it.
func measureBench() benchReport {
	var rep benchReport
	rep.GOMAXPROCS = runtime.GOMAXPROCS(0)
	rep.Jobs = parallel.Jobs()

	base := core.DefaultBench()
	grid := core.IntervalRange(0, 6, 0.5)
	const trials = 6
	sweep := func(jobs int) (time.Duration, []float64) {
		parallel.SetJobs(jobs)
		defer parallel.SetJobs(0)
		start := time.Now()
		s := core.SweepExecTime(base, grid, trials)
		return time.Since(start), s.Y
	}
	seqD, seqY := sweep(1)
	parD, parY := sweep(0)
	rep.Sweep.Name = "SweepExecTime fig4 0..6ms step 0.5ms"
	rep.Sweep.Points = len(grid)
	rep.Sweep.Trials = trials
	rep.Sweep.SequentialNs = seqD.Nanoseconds()
	rep.Sweep.ParallelNs = parD.Nanoseconds()
	if parD > 0 {
		rep.Sweep.Speedup = float64(seqD) / float64(parD)
	}
	rep.Sweep.Identical = equalSlices(seqY, parY)

	// Engine hot path: the RC requester's schedule-ACK-cancel pattern —
	// each posted retransmit timer is cancelled before it fires — on one
	// Reset-reused engine. The free list and eager cancel keep this
	// allocation-flat per loop.
	const eventsPerLoop = 4096
	engRes := testing.Benchmark(func(b *testing.B) {
		eng := sim.New(1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng.Reset(int64(i))
			var pending sim.Timer
			for j := 0; j < eventsPerLoop; j++ {
				pending.Cancel() // no-op on the zero Timer
				pending = eng.After(sim.Time(j+1)*sim.Microsecond, func() {})
				eng.After(sim.Time(j)*sim.Microsecond, func() {})
			}
			eng.Run()
		}
	})
	rep.Engine.Name = "engine schedule+cancel loop, 4096 events, Reset-reused"
	rep.Engine.NsPerEvent = float64(engRes.NsPerOp()) / eventsPerLoop
	rep.Engine.AllocsPerLoop = engRes.AllocsPerOp()

	mbRes := testing.Benchmark(func(b *testing.B) {
		eng := sim.New(1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cfg := core.DefaultBench()
			cfg.Eng = eng
			cfg.Seed = int64(i + 1)
			core.RunMicrobench(cfg)
		}
	})
	rep.Microbench.Name = "RunMicrobench default config, Reset-reused engine"
	rep.Microbench.NsPerOp = mbRes.NsPerOp()
	rep.Microbench.Allocs = mbRes.AllocsPerOp()

	// Pooled packet datapath: per-trial fabric rebuild plus a pooled
	// send→deliver stream, all drawn from the engine-generation arenas.
	// Warm, the whole loop stays within a couple of allocations
	// (TestAllocBudgetSendDeliver pins the budget; DESIGN.md §8).
	const sendsPerLoop = 4096
	dpRes := testing.Benchmark(func(b *testing.B) {
		eng := sim.New(1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng.Reset(int64(i))
			f := fabric.New(eng, fabric.DefaultConfig())
			src := f.AttachPort(1, "src", func(*packet.Packet) {})
			f.AttachPort(2, "dst", func(*packet.Packet) {})
			pool := f.Pool()
			for j := 0; j < sendsPerLoop; j++ {
				p := pool.Get()
				p.Opcode = packet.OpReadRequest
				p.DLID = 2
				p.PSN = uint32(j)
				src.Send(p)
			}
			eng.Run()
		}
	})
	rep.Datapath.Name = "pooled Port.Send→deliver loop, 4096 packets, rebuilt fabric, Reset-reused engine"
	rep.Datapath.NsPerSend = float64(dpRes.NsPerOp()) / sendsPerLoop
	rep.Datapath.AllocsPerLoop = dpRes.AllocsPerOp()

	// The same stream through the switched lossless-fabric stage: two
	// hosts on opposite edge switches, PFC on, every packet crossing the
	// oversubscribed core. The delta against the datapath row is the
	// per-packet cost of the congestion model.
	cgRes := testing.Benchmark(func(b *testing.B) {
		eng := sim.New(1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng.Reset(int64(i))
			f := fabric.New(eng, fabric.DefaultConfig())
			src := f.AttachPort(1, "src", func(*packet.Packet) {})
			f.AttachPort(2, "dst", func(*packet.Packet) {})
			ccfg := congestion.DefaultConfig()
			ccfg.PFC = true
			f.EnableCongestion(ccfg)
			pool := f.Pool()
			for j := 0; j < sendsPerLoop; j++ {
				p := pool.Get()
				p.Opcode = packet.OpReadRequest
				p.DLID = 2
				p.PSN = uint32(j)
				src.Send(p)
			}
			eng.Run()
		}
	})
	rep.Congested.Name = "switched-fabric Port.Send→deliver loop, 4096 packets, 2 switches, PFC, Reset-reused engine"
	rep.Congested.NsPerSend = float64(cgRes.NsPerOp()) / sendsPerLoop
	rep.Congested.AllocsPerLoop = cgRes.AllocsPerOp()

	// Scale-out row: the bounded-lag shard layer on a 64-host fat-tree
	// (8 radix-4 pod cells, per-pod engines, digest links into pod 0),
	// at 1 and 8 worker lanes. The speedup tracks available cores —
	// ≈1x on a single-core host — and the two runs must agree on the
	// deterministic fingerprint regardless.
	const shardedPods = 8
	shardedRun := func(lanes int) (*shardedHarness, testing.BenchmarkResult) {
		h := newShardedHarness(shardedPods, lanes)
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h.trial(int64(i * 16))
			}
		})
		return h, res
	}
	h1, res1 := shardedRun(1)
	h8, res8 := shardedRun(8)
	// The benchmark loops stop at machine-dependent iteration counts, so
	// re-run one fixed-seed trial on each harness before fingerprinting.
	h1.trial(7)
	h8.trial(7)
	rep.Sharded.Name = "shard.Group 8 pod cells x 4096 packets, digest links into pod 0, shards 1 vs 8"
	rep.Sharded.Pods = shardedPods
	rep.Sharded.Shards1Ns = res1.NsPerOp()
	rep.Sharded.Shards8Ns = res8.NsPerOp()
	if res8.NsPerOp() > 0 {
		rep.Sharded.Speedup = float64(res1.NsPerOp()) / float64(res8.NsPerOp())
	}
	rep.Sharded.Identical = equalInts(h1.fingerprint(), h8.fingerprint())
	rep.Sharded.AllocsPerLoop = res1.AllocsPerOp()

	// The IRN selective-repeat datapath: a two-node cluster rebuilt per
	// trial on a Reset-reused engine, flooding pinned WRITEs over a
	// 10%-lossy fabric so SACKs, reorder-buffer stashes and single-PSN
	// retransmits are all on the measured path (the odpperf copy of
	// BenchmarkIRNSend; TestAllocBudgetIRNSend pins the alloc budget).
	irnSys := cluster.KNL()
	irnSys.LossRate = 0.1
	irnSys.Transport = "irn"
	irnRes := testing.Benchmark(func(b *testing.B) {
		eng := sim.New(1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cl := irnSys.BuildOn(eng, int64(i+1), 2)
			client, server := cl.Nodes[0], cl.Nodes[1]
			const n, size = 256, 512
			lbuf := client.AS.Alloc(n * size)
			rbuf := server.AS.Alloc(n * size)
			client.AS.Touch(lbuf, n*size)
			server.AS.Touch(rbuf, n*size)
			client.RegisterMR(lbuf, n*size)
			server.RegisterMR(rbuf, n*size)
			cq := rnic.NewCQ(cl.Eng)
			scq := rnic.NewCQ(cl.Eng)
			params := rnic.ConnParams{CACK: 8, RetryCount: 7, MinRNRDelay: sim.FromMillis(1.28)}
			qc := client.CreateQP(cq, cq)
			qs := server.CreateQP(scq, scq)
			rnic.ConnectPair(qc, qs, params, params)
			for j := 0; j < n; j++ {
				off := hostmem.Addr(j * size)
				qc.PostSend(rnic.SendWR{ID: uint64(j), Op: rnic.OpWrite,
					LocalAddr: lbuf + off, RemoteAddr: rbuf + off, Len: size})
			}
			cl.Eng.Run()
		}
	})
	rep.IRN.Name = "irn transport 256 WRITEs, 10% loss, rebuilt cluster, Reset-reused engine"
	rep.IRN.NsPerOp = irnRes.NsPerOp()
	rep.IRN.AllocsPerLoop = irnRes.AllocsPerOp()

	return rep
}

func equalInts(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// writeBenchFile measures a snapshot and records it as JSON — the file
// committed as BENCH_baseline.json is what -check-bench compares against.
func writeBenchFile(path string) error {
	rep := measureBench()
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s: sweep %.2fx speedup (%d workers), engine %.0f ns/event, %d allocs/loop, datapath %.0f ns/send, %d allocs/loop, congested %.0f ns/send, %d allocs/loop, sharded %.2fx speedup @8 lanes\n",
		path, rep.Sweep.Speedup, rep.Jobs, rep.Engine.NsPerEvent, rep.Engine.AllocsPerLoop,
		rep.Datapath.NsPerSend, rep.Datapath.AllocsPerLoop, rep.Congested.NsPerSend, rep.Congested.AllocsPerLoop,
		rep.Sharded.Speedup)
	return nil
}

// benchNoiseBand is the allowed growth over the committed baseline before
// -check-bench fails: wall-clock rows jitter with machine load, and alloc
// counts only move when code changes, so one generous band covers both.
const benchNoiseBand = 1.25

// checkBenchFile measures a fresh snapshot and fails if any tracked
// metric regressed beyond the noise band relative to the baseline file.
// Improvements never fail (refresh the baseline with -write-bench to
// lock them in); determinism (identical sequential/parallel sweep
// output) must hold outright.
func checkBenchFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base benchReport
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("baseline %s: %v", path, err)
	}
	cur := measureBench()

	var failures []string
	check := func(name string, baseline, current float64) {
		status := "ok"
		if baseline > 0 && current > baseline*benchNoiseBand {
			status = "REGRESSION"
			failures = append(failures, name)
		}
		fmt.Printf("%-28s baseline %12.1f  current %12.1f  %s\n", name, baseline, current, status)
	}
	check("sweep sequential_ns", float64(base.Sweep.SequentialNs), float64(cur.Sweep.SequentialNs))
	check("sweep parallel_ns", float64(base.Sweep.ParallelNs), float64(cur.Sweep.ParallelNs))
	check("engine ns_per_event", base.Engine.NsPerEvent, cur.Engine.NsPerEvent)
	check("engine allocs_per_loop", float64(base.Engine.AllocsPerLoop), float64(cur.Engine.AllocsPerLoop))
	check("microbench ns_per_op", float64(base.Microbench.NsPerOp), float64(cur.Microbench.NsPerOp))
	check("microbench allocs_per_op", float64(base.Microbench.Allocs), float64(cur.Microbench.Allocs))
	check("datapath ns_per_send", base.Datapath.NsPerSend, cur.Datapath.NsPerSend)
	check("datapath allocs_per_loop", float64(base.Datapath.AllocsPerLoop), float64(cur.Datapath.AllocsPerLoop))
	check("congested ns_per_send", base.Congested.NsPerSend, cur.Congested.NsPerSend)
	check("congested allocs_per_loop", float64(base.Congested.AllocsPerLoop), float64(cur.Congested.AllocsPerLoop))
	check("sharded shards1_ns", float64(base.Sharded.Shards1Ns), float64(cur.Sharded.Shards1Ns))
	check("sharded shards8_ns", float64(base.Sharded.Shards8Ns), float64(cur.Sharded.Shards8Ns))
	check("sharded allocs_per_loop", float64(base.Sharded.AllocsPerLoop), float64(cur.Sharded.AllocsPerLoop))
	check("irn ns_per_op", float64(base.IRN.NsPerOp), float64(cur.IRN.NsPerOp))
	check("irn allocs_per_loop", float64(base.IRN.AllocsPerLoop), float64(cur.IRN.AllocsPerLoop))
	if !cur.Sweep.Identical {
		failures = append(failures, "sweep determinism (sequential vs parallel output differs)")
	}
	if !cur.Sharded.Identical {
		failures = append(failures, "shard determinism (shards=1 vs shards=8 fingerprint differs)")
	}

	if len(failures) > 0 {
		return fmt.Errorf("bench check failed vs %s (band %.0f%%): %v", path, (benchNoiseBand-1)*100, failures)
	}
	fmt.Printf("bench check passed vs %s (band %.0f%%)\n", path, (benchNoiseBand-1)*100)
	return nil
}

func equalSlices(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
