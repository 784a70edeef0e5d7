// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each benchmark drives the corresponding experiment and
// reports the headline quantity via b.ReportMetric (use -v to see the
// underlying series). The full-resolution sweeps live in cmd/odpsweep and
// cmd/odpapps; the benchmarks use reduced grids so the whole suite stays
// runnable in minutes.
package odpsim

import (
	"fmt"
	"testing"

	"odpsim/internal/apps/argodsm"
	"odpsim/internal/apps/kvstore"
	"odpsim/internal/apps/sparkucx"
	"odpsim/internal/cluster"
	"odpsim/internal/congestion"
	"odpsim/internal/core"
	"odpsim/internal/fabric"
	"odpsim/internal/hostmem"
	"odpsim/internal/odp"
	"odpsim/internal/packet"
	"odpsim/internal/parallel"
	"odpsim/internal/perftest"
	"odpsim/internal/regcache"
	"odpsim/internal/rnic"
	"odpsim/internal/sim"
	"odpsim/internal/softrel"
	"odpsim/internal/stats"
)

// BenchmarkFig01_SingleReadWorkflow measures the common-case latency of a
// single ODP READ per side (the workflow of Figure 1).
func BenchmarkFig01_SingleReadWorkflow(b *testing.B) {
	for _, mode := range []core.ODPMode{core.ServerODP, core.ClientODP} {
		b.Run(mode.String(), func(b *testing.B) {
			var last sim.Time
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultBench()
				cfg.NumOps = 1
				cfg.Mode = mode
				cfg.Seed = int64(i + 1)
				last = core.RunMicrobench(cfg).ExecTime
			}
			b.ReportMetric(last.Millis(), "ms/read")
		})
	}
}

// BenchmarkFig02_TimeoutSweep measures T_o floors on representative
// systems (the lines of Figure 2).
func BenchmarkFig02_TimeoutSweep(b *testing.B) {
	systems := []cluster.System{cluster.KNL(), cluster.AzureHC(), cluster.AzureHBv2()}
	var knlFloor, cx5Floor sim.Time
	for i := 0; i < b.N; i++ {
		series := core.SweepTimeouts(systems, []int{1, 8, 16, 18, 20}, int64(i+1))
		knlFloor = sim.FromSeconds(series[0].Y[0])
		cx5Floor = sim.FromSeconds(series[1].Y[0])
		if i == 0 {
			b.Logf("\n%s", stats.Table("C_ACK", series...))
		}
	}
	b.ReportMetric(knlFloor.Millis(), "ms-CX4-floor")
	b.ReportMetric(cx5Floor.Millis(), "ms-CX5-floor")
}

// BenchmarkFig04_TwoReadInterval regenerates the execution-time curve of
// two READs vs posting interval (Figure 4).
func BenchmarkFig04_TwoReadInterval(b *testing.B) {
	var peak float64
	for i := 0; i < b.N; i++ {
		base := core.DefaultBench()
		base.Seed = int64(i + 1)
		s := core.SweepExecTime(base, core.IntervalRange(0, 6, 1), 3)
		if i == 0 {
			b.Logf("\n%s", stats.Table("interval[ms]", s))
		}
		peak = 0
		for _, y := range s.Y {
			if y > peak {
				peak = y
			}
		}
	}
	b.ReportMetric(peak, "s-peak-exec")
}

// BenchmarkFig05_TwoReadWorkflow reproduces the dammed two-READ trace and
// reports the stall the detector finds (Figure 5).
func BenchmarkFig05_TwoReadWorkflow(b *testing.B) {
	var stall sim.Time
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultBench()
		cfg.Interval = sim.Millisecond
		cfg.Seed = int64(i + 1)
		cfg.WithCapture = true
		r := core.RunMicrobench(cfg)
		if incs := core.DetectDamming(r.Cap, 100*sim.Millisecond); len(incs) > 0 {
			stall = incs[0].Stall
		}
	}
	b.ReportMetric(stall.Millis(), "ms-stall")
}

// BenchmarkFig06a_ServerODPTimeoutProb regenerates the server-side timeout
// probability curve for the three RNR delays (Figure 6a).
func BenchmarkFig06a_ServerODPTimeoutProb(b *testing.B) {
	var at1ms float64
	for i := 0; i < b.N; i++ {
		base := core.DefaultBench()
		base.Mode = core.ServerODP
		base.Seed = int64(i + 1)
		var series []*stats.Series
		for _, d := range []float64{0.01, 1.28, 10.24} {
			cfg := base
			cfg.MinRNRDelay = sim.FromMillis(d)
			series = append(series, core.SweepTimeoutProbability(cfg,
				core.IntervalRange(0, 6, 1), 4, ""))
		}
		at1ms = series[1].Y[1]
		if i == 0 {
			series[0].Label, series[1].Label, series[2].Label = "0.01ms", "1.28ms", "10.24ms"
			b.Logf("\n%s", stats.Table("interval[ms]", series...))
		}
	}
	b.ReportMetric(at1ms, "%timeout@1ms")
}

// BenchmarkFig06b_ClientODPTimeoutProb regenerates the client-side curve
// (Figure 6b).
func BenchmarkFig06b_ClientODPTimeoutProb(b *testing.B) {
	var at300us float64
	for i := 0; i < b.N; i++ {
		base := core.DefaultBench()
		base.Mode = core.ClientODP
		base.Seed = int64(i + 1)
		s := core.SweepTimeoutProbability(base,
			[]sim.Time{sim.FromMicros(300), sim.Millisecond, sim.FromMillis(3)}, 4, "1.28 ms")
		at300us = s.Y[0]
		if i == 0 {
			b.Logf("\n%s", stats.Table("interval[ms]", s))
		}
	}
	b.ReportMetric(at300us, "%timeout@0.3ms")
}

// BenchmarkFig07_MoreReads regenerates the narrowing-window curves for
// 2/3/4 operations (Figure 7).
func BenchmarkFig07_MoreReads(b *testing.B) {
	var threeOpsAt2ms float64
	for i := 0; i < b.N; i++ {
		var series []*stats.Series
		for _, n := range []int{2, 3, 4} {
			cfg := core.DefaultBench()
			cfg.NumOps = n
			cfg.Seed = int64(i + 1)
			series = append(series, core.SweepTimeoutProbability(cfg,
				core.IntervalRange(0, 6, 1), 4, ""))
		}
		threeOpsAt2ms = series[1].Y[2]
		if i == 0 {
			series[0].Label, series[1].Label, series[2].Label = "2 ops", "3 ops", "4 ops"
			b.Logf("\n%s", stats.Table("interval[ms]", series...))
		}
	}
	b.ReportMetric(threeOpsAt2ms, "%timeout-3ops@2ms")
}

// BenchmarkFig08_ThreeReadWorkflow reproduces the PSN-sequence-error
// rescue (Figure 8) and reports the NAK count (no timeout expected).
func BenchmarkFig08_ThreeReadWorkflow(b *testing.B) {
	var naks, timeouts uint64
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultBench()
		cfg.NumOps = 3
		cfg.Mode = core.ServerODP
		cfg.Interval = sim.FromMillis(2.5)
		cfg.Seed = int64(i + 1)
		r := core.RunMicrobench(cfg)
		naks, timeouts = r.NakSeqSent, r.Timeouts
	}
	b.ReportMetric(float64(naks), "psn-naks")
	b.ReportMetric(float64(timeouts), "timeouts")
}

// fig9Sweep runs the reduced Figure-9 grid shared by the 9a/9b benchmarks.
func fig9Sweep(seed int64) *core.QPSweepResult {
	base := core.DefaultBench()
	base.NumOps = 2048
	base.CACK = 18
	base.Seed = seed
	return core.SweepQPs(base, []int{1, 10, 50, 128},
		[]core.ODPMode{core.NoODP, core.ServerODP, core.ClientODP, core.BothODP})
}

// BenchmarkFig09a_QPSweepTime regenerates the execution-time-vs-QPs curves
// (Figure 9a, reduced grid; full grid via cmd/odpsweep -fig 9).
func BenchmarkFig09a_QPSweepTime(b *testing.B) {
	var slowdown float64
	for i := 0; i < b.N; i++ {
		res := fig9Sweep(int64(i + 1))
		cl, no := res.Time[core.ClientODP], res.Time[core.NoODP]
		slowdown = cl.Y[len(cl.Y)-1] / no.Y[len(no.Y)-1]
		if i == 0 {
			b.Logf("\n%s", stats.Table("#QPs", no, res.Time[core.ServerODP], cl, res.Time[core.BothODP]))
		}
	}
	b.ReportMetric(slowdown, "x-clientODP-vs-noODP@128qp")
}

// BenchmarkFig09b_QPSweepPackets regenerates the packet-count curves
// (Figure 9b).
func BenchmarkFig09b_QPSweepPackets(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		res := fig9Sweep(int64(i + 100))
		cl, no := res.Packets[core.ClientODP], res.Packets[core.NoODP]
		ratio = cl.Y[len(cl.Y)-1] / no.Y[len(no.Y)-1]
		if i == 0 {
			b.Logf("\n%s", stats.Table("#QPs", no, res.Packets[core.ServerODP], cl, res.Packets[core.BothODP]))
		}
	}
	b.ReportMetric(ratio, "x-packets-clientODP@128qp")
}

func fig11Run(ops int, seed int64) *core.BenchResult {
	cfg := core.DefaultBench()
	cfg.Mode = core.ClientODP
	cfg.Size = 32
	cfg.NumQPs = 128
	cfg.NumOps = ops
	cfg.CACK = 18
	cfg.Seed = seed
	return core.RunMicrobench(cfg)
}

// BenchmarkFig11a_FloodProgress128 regenerates the 128-operation progress
// profile (Figure 11a): completions begin under ≈1 ms but the earliest
// operations stay stuck for several ms.
func BenchmarkFig11a_FloodProgress128(b *testing.B) {
	var last sim.Time
	for i := 0; i < b.N; i++ {
		r := fig11Run(128, int64(i+1))
		last = 0
		for _, ct := range r.CompletionTime {
			if ct > last {
				last = ct
			}
		}
		if i == 0 {
			b.Logf("\n%s", stats.Table("t[ms]", core.ProgressByPage(r, 32, sim.Millisecond)...))
		}
	}
	b.ReportMetric(last.Millis(), "ms-last-completion")
}

// BenchmarkFig11b_FloodProgress512 regenerates the 512-operation profile
// (Figure 11b): the update failure spreads completions over hundreds of
// milliseconds and beyond.
func BenchmarkFig11b_FloodProgress512(b *testing.B) {
	var last sim.Time
	for i := 0; i < b.N; i++ {
		r := fig11Run(512, int64(i+1))
		last = 0
		for _, ct := range r.CompletionTime {
			if ct > last {
				last = ct
			}
		}
	}
	b.ReportMetric(last.Millis(), "ms-last-completion")
}

// BenchmarkFig12_ArgoDSM regenerates the init+finalize distributions with
// ODP off/on (Figure 12, reduced trial count).
func BenchmarkFig12_ArgoDSM(b *testing.B) {
	for _, odpOn := range []bool{false, true} {
		name := "woODP"
		if odpOn {
			name = "wODP"
		}
		b.Run(name, func(b *testing.B) {
			var mean float64
			for i := 0; i < b.N; i++ {
				cfg := argodsm.DefaultConfig()
				cfg.ODP = odpOn
				cfg.Seed = int64(i + 1)
				times, _ := argodsm.Distribution(cfg, 20, 6)
				mean = stats.Summarize(times).Mean
			}
			b.ReportMetric(mean, "s-mean-exec")
		})
	}
}

// BenchmarkTab13_SparkUCX regenerates one Table-13 row pair per example on
// the KNL configuration (full table via cmd/odpapps -app sparkucx).
func BenchmarkTab13_SparkUCX(b *testing.B) {
	knl := sparkucx.Table13Configs()[0]
	for _, ex := range []sparkucx.Example{sparkucx.SparkTC, sparkucx.RecommendationExample, sparkucx.RankingMetricsExample} {
		b.Run(ex.String(), func(b *testing.B) {
			var row sparkucx.Row
			for i := 0; i < b.N; i++ {
				row = sparkucx.MeasureRow(ex, knl, 2, int64(i+1), 1)
			}
			b.ReportMetric(row.Disable.Mean, "s-disable")
			b.ReportMetric(row.Enable.Mean, "s-enable")
			b.ReportMetric(row.Ratio, "x-ratio")
		})
	}
}

// --- Ablations: each design choice in DESIGN.md §4, toggled off ---

// BenchmarkAblation_DammingQuirk compares the two-READ schedule on the
// quirky ConnectX-4 vs the fixed ConnectX-6: the quirk is load-bearing for
// the Figure-4/5 timeouts.
func BenchmarkAblation_DammingQuirk(b *testing.B) {
	for _, sys := range []cluster.System{cluster.KNL(), cluster.AzureHBv2()} {
		b.Run(sys.Device.Name, func(b *testing.B) {
			var exec sim.Time
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultBench()
				cfg.System = sys
				cfg.Interval = sim.Millisecond
				cfg.Seed = int64(i + 1)
				exec = core.RunMicrobench(cfg).ExecTime
			}
			b.ReportMetric(exec.Millis(), "ms-exec")
		})
	}
}

// BenchmarkAblation_UpdateOrder compares LIFO vs FIFO page-status update
// order in the Figure-11a run: LIFO is what starves the earliest ops.
func BenchmarkAblation_UpdateOrder(b *testing.B) {
	for _, fifo := range []bool{false, true} {
		name := "LIFO"
		if fifo {
			name = "FIFO"
		}
		b.Run(name, func(b *testing.B) {
			var lastEarlyOp float64
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultBench()
				cfg.Mode = core.ClientODP
				cfg.Size = 32
				cfg.NumQPs = 128
				cfg.NumOps = 128
				cfg.CACK = 18
				cfg.Seed = int64(i + 1)
				cfg.System.Device.ODP.UpdatesFIFO = fifo
				r := core.RunMicrobench(cfg)
				var worst sim.Time
				for op := 0; op < 32; op++ {
					if r.CompletionTime[op] > worst {
						worst = r.CompletionTime[op]
					}
				}
				lastEarlyOp = worst.Millis()
			}
			b.ReportMetric(lastEarlyOp, "ms-first32ops-done")
		})
	}
}

// BenchmarkAblation_SpuriousCost compares the flood run with and without
// the spurious pipeline cost: without it, stale statuses clear as fast as
// updates alone allow and the flood shrinks.
func BenchmarkAblation_SpuriousCost(b *testing.B) {
	for _, free := range []bool{false, true} {
		name := "calibrated"
		if free {
			name = "free"
		}
		b.Run(name, func(b *testing.B) {
			var exec sim.Time
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultBench()
				cfg.Mode = core.ClientODP
				cfg.NumOps = 2048
				cfg.NumQPs = 64
				cfg.CACK = 18
				cfg.Seed = int64(i + 1)
				cfg.System.Device.ODP.SpuriousFree = free
				exec = core.RunMicrobench(cfg).ExecTime
			}
			b.ReportMetric(exec.Millis(), "ms-exec")
		})
	}
}

// BenchmarkAblation_RNRWaitFactor compares the observed ≈3.5× RNR wait
// against a literal-spec requester that waits exactly the advertised
// delay: the damming window (and Figure 6a's 4.5 ms boundary) tracks it.
func BenchmarkAblation_RNRWaitFactor(b *testing.B) {
	for _, factor := range []float64{3.5, 1.0} {
		name := "observed3.5x"
		if factor == 1.0 {
			name = "spec1.0x"
		}
		b.Run(name, func(b *testing.B) {
			var timeouts uint64
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultBench()
				cfg.Mode = core.ServerODP
				cfg.Interval = sim.FromMillis(2)
				cfg.Seed = int64(i + 1)
				cfg.System.Device.RNRWaitFactor = factor
				timeouts = core.RunMicrobench(cfg).Timeouts
			}
			b.ReportMetric(float64(timeouts), "timeouts@2ms")
		})
	}
}

// BenchmarkAblation_SerialPipeline compares the calibrated serial ODP
// pipeline against an idealized fast one (tiny update cost): the
// Figure-11a tail collapses.
func BenchmarkAblation_SerialPipeline(b *testing.B) {
	for _, fast := range []bool{false, true} {
		name := "calibrated"
		if fast {
			name = "idealized"
		}
		b.Run(name, func(b *testing.B) {
			var last sim.Time
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultBench()
				cfg.Mode = core.ClientODP
				cfg.Size = 32
				cfg.NumQPs = 128
				cfg.NumOps = 128
				cfg.CACK = 18
				cfg.Seed = int64(i + 1)
				if fast {
					cfg.System.Device.ODP.QPUpdateCost = sim.Microsecond
				}
				r := core.RunMicrobench(cfg)
				last = 0
				for _, ct := range r.CompletionTime {
					if ct > last {
						last = ct
					}
				}
			}
			b.ReportMetric(last.Millis(), "ms-last-completion")
		})
	}
}

// BenchmarkAblation_Congestion reruns the flood with the fabric's
// egress-queuing model enabled: the millions of flood packets now consume
// wire time too.
func BenchmarkAblation_Congestion(b *testing.B) {
	for _, congested := range []bool{false, true} {
		name := "latency-only"
		if congested {
			name = "egress-queued"
		}
		b.Run(name, func(b *testing.B) {
			var exec sim.Time
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultBench()
				cfg.Mode = core.ClientODP
				cfg.NumOps = 2048
				cfg.NumQPs = 64
				cfg.CACK = 18
				cfg.Seed = int64(i + 1)
				cfg.System.ModelCongestion = congested
				exec = core.RunMicrobench(cfg).ExecTime
			}
			b.ReportMetric(exec.Millis(), "ms-exec")
		})
	}
}

// --- Extensions beyond the paper's evaluation ---

// BenchmarkMotivation_RegistrationStrategies compares the §VIII-A
// registration-management baselines against ODP on a reuse-heavy trace —
// the tradeoff that motivates ODP (§I).
func BenchmarkMotivation_RegistrationStrategies(b *testing.B) {
	costs := regcache.DefaultCosts()
	strategies := []struct {
		name string
		mk   func(nic *rnicRNIC) regcache.Strategy
	}{
		{"direct-pin", func(n *rnicRNIC) regcache.Strategy { return regcache.NewDirectPin(n, costs) }},
		{"pin-down-cache", func(n *rnicRNIC) regcache.Strategy { return regcache.NewPinDownCache(n, costs, 1<<20) }},
		{"batched-dereg", func(n *rnicRNIC) regcache.Strategy { return regcache.NewBatchedDereg(n, costs, 1<<20, 8) }},
		{"odp", func(n *rnicRNIC) regcache.Strategy { return regcache.NewODPOnce(n) }},
	}
	for _, s := range strategies {
		b.Run(s.name, func(b *testing.B) {
			var res regcache.WorkloadResult
			for i := 0; i < b.N; i++ {
				cl := cluster.ReedbushH().Build(int64(i+1), 1)
				strat := s.mk(cl.Nodes[0])
				trace := regcache.SyntheticTrace(cl.Eng, cl.Nodes[0], 64, 16384, 1000, 0.25)
				res = regcache.RunWorkload(cl.Eng, strat, trace)
			}
			b.ReportMetric(res.Time.Millis(), "ms-total")
			b.ReportMetric(float64(res.MaxPinned)/1024, "KiB-pinned")
		})
	}
}

type rnicRNIC = rnic.RNIC

// BenchmarkExtension_SoftwareReliability measures failure-detection time:
// hardware RC retry exhaustion vs the §VIII-C software-timeout approach
// over UD, against an unreachable peer.
func BenchmarkExtension_SoftwareReliability(b *testing.B) {
	b.Run("UD-software", func(b *testing.B) {
		var detect sim.Time
		for i := 0; i < b.N; i++ {
			cl := cluster.ReedbushH().Build(int64(i+1), 2)
			cfg := softrel.DefaultConfig()
			cfg.Retries = 3
			cli := softrel.NewClient(cl.Nodes[0], cfg)
			cl.Eng.Go("caller", func(p *sim.Proc) {
				start := p.Now()
				_ = cli.Call(p, 99, 1, 64)
				detect = p.Now() - start
			})
			cl.Eng.Run()
		}
		b.ReportMetric(detect.Millis(), "ms-detect")
	})
	b.Run("RC-hardware", func(b *testing.B) {
		var detect sim.Time
		for i := 0; i < b.N; i++ {
			detect = core.MeasureTimeout(cluster.ReedbushH(), 1, int64(i+1)) * 4 // 1+3 attempts
		}
		b.ReportMetric(detect.Millis(), "ms-detect")
	})
}

// BenchmarkWorkaround_Prefetch compares the Figure-11a flood run with and
// without ibv_advise_mr-style prefetching of the fetch buffers — the
// Li et al. receiver-side prefetch that sidesteps the flood entirely.
func BenchmarkWorkaround_Prefetch(b *testing.B) {
	for _, prefetch := range []bool{false, true} {
		name := "faulting"
		if prefetch {
			name = "prefetched"
		}
		b.Run(name, func(b *testing.B) {
			var last sim.Time
			for i := 0; i < b.N; i++ {
				last = runFloodWithPrefetch(int64(i+1), prefetch)
			}
			b.ReportMetric(last.Millis(), "ms-last-completion")
		})
	}
}

// runFloodWithPrefetch builds the Figure-11a scenario by hand so the
// prefetch can be issued per QP before traffic starts.
func runFloodWithPrefetch(seed int64, prefetch bool) sim.Time {
	cl := cluster.KNL().Build(seed, 2)
	client, server := cl.Nodes[0], cl.Nodes[1]
	const nqp, size = 128, 32
	buflen := nqp * size
	lbuf := client.AS.Alloc(buflen)
	rbuf := server.AS.Alloc(buflen)
	client.RegisterODPMR(lbuf, buflen)
	server.RegisterMR(rbuf, buflen)
	cq := rnic.NewCQ(cl.Eng)
	scq := rnic.NewCQ(cl.Eng)
	params := rnic.ConnParams{CACK: 18, RetryCount: 7, MinRNRDelay: sim.FromMillis(1.28)}
	var last sim.Time
	qps := make([]*rnic.QP, nqp)
	for i := 0; i < nqp; i++ {
		qc := client.CreateQP(cq, cq)
		qs := server.CreateQP(scq, scq)
		rnic.ConnectPair(qc, qs, params, params)
		qps[i] = qc
		if prefetch {
			client.AdviseMR(qc.Num, lbuf, buflen)
		}
	}
	if prefetch {
		// Prefetch at registration time: the pipeline drains before the
		// application starts communicating.
		cl.Eng.Run()
	}
	start := cl.Eng.Now()
	for i, qc := range qps {
		off := uint64(i * size)
		qc.PostSend(rnic.SendWR{ID: uint64(i), Op: rnic.OpRead,
			LocalAddr: lbuf + hostmemAddr(off), RemoteAddr: rbuf + hostmemAddr(off), Len: size})
	}
	cl.Eng.Run()
	for _, e := range cq.Poll(0) {
		if e.At-start > last {
			last = e.At - start
		}
	}
	return last
}

type hostmemAddr = hostmem.Addr

// BenchmarkExtension_PerftestLatency runs the ib_read_lat equivalent per
// registration mode — the Li et al. first-access/steady-state comparison.
func BenchmarkExtension_PerftestLatency(b *testing.B) {
	for _, m := range []core.ODPMode{core.NoODP, core.ServerODP} {
		b.Run(m.String(), func(b *testing.B) {
			var r perftest.LatencyResult
			for i := 0; i < b.N; i++ {
				cfg := perftest.DefaultConfig()
				cfg.Iters = 500
				cfg.Mode = m
				cfg.Seed = int64(i + 1)
				r = perftest.ReadLat(cfg)
			}
			b.ReportMetric(r.Typical, "µs-typical")
			b.ReportMetric(r.First.Micros(), "µs-first")
		})
	}
}

// BenchmarkExtension_KVStore measures the HERD-style store's throughput —
// the §VIII-C design that never meets the RC timeout machinery.
func BenchmarkExtension_KVStore(b *testing.B) {
	var perOp sim.Time
	for i := 0; i < b.N; i++ {
		cl := cluster.ReedbushH().Build(int64(i+1), 2)
		cfg := softrel.DefaultConfig()
		srv := kvstore.NewServer(cl.Nodes[1], cfg, 300*sim.Nanosecond)
		cli := kvstore.NewClient(cl.Nodes[0], cfg, srv)
		const n = 1000
		cl.Eng.Go("client", func(p *sim.Proc) {
			start := p.Now()
			for k := uint64(0); k < n; k++ {
				if err := cli.Put(p, k, k); err != nil {
					b.Error(err)
					return
				}
			}
			perOp = (p.Now() - start) / n
		})
		cl.Eng.Run()
	}
	b.ReportMetric(perOp.Micros(), "µs/op")
}

// BenchmarkExtension_SparkEngine runs the DAG engine's TC-shaped job with
// and without ODP.
func BenchmarkExtension_SparkEngine(b *testing.B) {
	for _, odp := range []bool{false, true} {
		name := "pinned"
		if odp {
			name = "odp"
		}
		b.Run(name, func(b *testing.B) {
			var r sparkucx.JobResult
			for i := 0; i < b.N; i++ {
				r = sparkucx.RunJob(sparkucx.JobConfig{
					System: cluster.ReedbushH(), Seed: int64(i + 1),
					Executors: 2, QPsPerPeer: 8, ODP: odp,
					Job: sparkucx.TCJob(2),
				})
			}
			b.ReportMetric(r.Time.Millis(), "ms-job")
			b.ReportMetric(float64(r.Retransmits), "retransmits")
		})
	}
}

var _ = odp.DefaultConfig // keep the odp import for ablation docs references

// --- BenchmarkSweep family: the parallel sweep runner and engine hot
// path, tracked in BENCH_baseline.json via `odpperf -write-bench` ---

// benchSweepGrid is the reduced Fig-4 sweep the runner benchmarks share.
func benchSweepGrid(b *testing.B, jobs int) {
	parallel.SetJobs(jobs)
	defer parallel.SetJobs(0)
	for i := 0; i < b.N; i++ {
		base := core.DefaultBench()
		base.Seed = int64(i + 1)
		core.SweepExecTime(base, core.IntervalRange(0, 6, 1), 3)
	}
}

// BenchmarkSweepSequential is the -j 1 baseline for the multi-trial
// Figure-4 sweep.
func BenchmarkSweepSequential(b *testing.B) { benchSweepGrid(b, 1) }

// BenchmarkSweepParallel is the same sweep on the full worker pool; the
// wall-clock ratio against BenchmarkSweepSequential is the fan-out
// speedup (≈1x on a single-core host, ≥2x from 4 cores up).
func BenchmarkSweepParallel(b *testing.B) { benchSweepGrid(b, 0) }

// BenchmarkSweepTimeoutProbability exercises the probability sweep the
// Fig-6/7 drivers use, on the worker pool.
func BenchmarkSweepTimeoutProbability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base := core.DefaultBench()
		base.Mode = core.ServerODP
		base.Seed = int64(i + 1)
		core.SweepTimeoutProbability(base, core.IntervalRange(0, 6, 1), 4, "1.28 ms")
	}
}

// BenchmarkSweepEngineEventLoop measures the engine hot path alone: the
// RC requester's schedule-ACK-cancel pattern on a Reset-reused engine.
// The event free list and eager Cancel keep allocs/op flat (one Timer
// handle per After is all that escapes).
func BenchmarkSweepEngineEventLoop(b *testing.B) {
	eng := sim.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng.Reset(int64(i))
		var pending sim.Timer
		for j := 0; j < 1024; j++ {
			pending.Cancel() // no-op on the zero Timer
			pending = eng.After(sim.Time(j+1)*sim.Microsecond, func() {})
			eng.After(sim.Time(j)*sim.Microsecond, func() {})
		}
		eng.Run()
	}
}

// BenchmarkSweepDatapathSendDeliver measures the pooled packet datapath:
// a rebuilt fabric and a 4096-packet send→deliver stream per iteration,
// everything drawn from the engine-generation arenas. Warm, the whole
// loop stays within a couple of allocations (DESIGN.md §8;
// TestAllocBudgetSendDeliver pins the steady-state budget).
func BenchmarkSweepDatapathSendDeliver(b *testing.B) {
	eng := sim.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng.Reset(int64(i))
		f := fabric.New(eng, fabric.DefaultConfig())
		src := f.AttachPort(1, "src", func(*packet.Packet) {})
		f.AttachPort(2, "dst", func(*packet.Packet) {})
		pool := f.Pool()
		for j := 0; j < 4096; j++ {
			p := pool.Get()
			p.Opcode = packet.OpReadRequest
			p.DLID = 2
			p.PSN = uint32(j)
			src.Send(p)
		}
		eng.Run()
	}
}

// BenchmarkCongestedSend measures the same pooled send→deliver stream
// through the switched lossless-fabric stage of internal/congestion: two
// hosts on opposite edge switches with PFC on, so every packet crosses
// the 4×-oversubscribed inter-switch link and the host uplink is
// XOFF/XON-paused while the burst drains. The delta against
// BenchmarkSweepDatapathSendDeliver is the per-packet cost of the switch
// model (buffer accounting, VL queues, the PFC state machine). The
// switched stage is on the warm zero-allocation contract (DESIGN.md §9):
// entries, VL rings, wires and topology come from engine-generation
// arenas, and TestAllocBudgetCongestedSend pins the warm trial budget.
func BenchmarkCongestedSend(b *testing.B) {
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
		for j := 0; j < 4096; j++ {
			p := pool.Get()
			p.Opcode = packet.OpReadRequest
			p.DLID = 2
			p.PSN = uint32(j)
			src.Send(p)
		}
		eng.Run()
	}
}

// BenchmarkCongestedSendClos is BenchmarkCongestedSend on a leaf-spine
// Clos (radix 4, 4× oversubscription) with eight hosts spread across the
// four leaves: every packet is routed by the per-switch CSR tables and
// the spine hop is picked by seeded-hash ECMP, so the delta against
// BenchmarkCongestedSend is the cost of graph routing over the
// hard-wired chain. TestAllocBudgetClosSend pins the warm trial budget.
func BenchmarkCongestedSendClos(b *testing.B) {
	ccfg := congestion.DefaultConfig()
	ccfg.Topology = congestion.ClosTopology(2, 4, 4)
	ccfg.PFC = true
	ccfg.XOffBytes = 1 << 10
	ccfg.XOnBytes = 512
	eng := sim.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng.Reset(int64(i))
		f := fabric.New(eng, fabric.DefaultConfig())
		ports := make([]*fabric.Port, 8)
		for lid := uint16(1); lid <= 8; lid++ {
			ports[lid-1] = f.AttachPort(lid, "host", func(*packet.Packet) {})
		}
		f.EnableCongestion(ccfg)
		pool := f.Pool()
		for j := 0; j < 4096; j++ {
			p := pool.Get()
			p.Opcode = packet.OpReadRequest
			p.DLID = uint16(5 + (j+1)%4)
			p.PSN = uint32(j)
			ports[j%4].Send(p)
		}
		eng.Run()
	}
}

// BenchmarkShardedIncast measures the bounded-lag shard layer on a
// 64-host fat-tree: eight radix-4 pod cells (8 hosts each) on per-pod
// engines, each absorbing a 4096-packet cross-edge burst through the
// switched PFC fabric, with digest flights converging on pod 0 over the
// shard boundary links. The shards=8/shards=1 wall-clock ratio is the
// scale-out speedup (recorded in BENCH_baseline.json; ≈1x on a
// single-core host since the lanes are OS threads — see README's
// scale-out section). Output is byte-identical at both counts, so the
// only thing the lane count may change is the wall clock.
func BenchmarkShardedIncast(b *testing.B) {
	for _, lanes := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", lanes), func(b *testing.B) {
			sf := newShardedFabric(8, lanes)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sf.trial(int64(i * 16))
			}
			if sf.digests == 0 {
				b.Fatal("no digest flights crossed the shard boundary")
			}
		})
	}
}

// BenchmarkIRNSend measures the IRN selective-repeat datapath: a
// two-node cluster rebuilt per trial on a Reset-reused engine, flooding
// 256 pinned-memory WRITEs over a 10%-lossy fabric so drops exercise
// the SACK, reorder-buffer and single-PSN retransmit paths on every
// iteration. TestAllocBudgetIRNSend pins the warm trial budget.
func BenchmarkIRNSend(b *testing.B) {
	sys := cluster.KNL()
	sys.LossRate = 0.1
	sys.Transport = "irn"
	eng := sim.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cl := sys.BuildOn(eng, int64(i+1), 2)
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
		if got := len(cq.Poll(0)); got != n {
			b.Fatalf("completed %d/%d WRITEs", got, n)
		}
	}
}

// BenchmarkSweepMicrobenchReuse measures one default micro-benchmark run
// on a Reset-reused engine — the per-trial cost inside every sweep.
func BenchmarkSweepMicrobenchReuse(b *testing.B) {
	eng := sim.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultBench()
		cfg.Eng = eng
		cfg.Seed = int64(i + 1)
		core.RunMicrobench(cfg)
	}
}
