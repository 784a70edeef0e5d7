package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

const (
	// memCeilingMB and wallCeilingS bound one child run; a run that
	// breaches either is killed and counted as failed. The largest
	// workload peaks near 50 MB and the slowest run takes ~5 s.
	memCeilingMB = 1024
	wallCeilingS = 40
	// minRuns is the fewest workload runs a measurement takes, however
	// long each one is.
	minRuns = 3
	// setupProbes extra children stop at the scenario.Run handoff, so
	// setup_s has enough samples on workloads with few, long runs.
	setupProbes = 5
	outDir      = ".bench_out"
)

// childRun is one child process as the runner saw it.
type childRun struct {
	Seed       int64       `json:"seed"`
	Traced     bool        `json:"traced,omitempty"`
	Probe      bool        `json:"probe,omitempty"`
	SetupS     float64     `json:"setup_s"`
	PeakRSSMB  float64     `json:"peak_rss_mb"`
	Result     childResult `json:"result"`
	Err        string      `json:"error,omitempty"`
	Verified   int         `json:"verified_parts"`
	Unverified int         `json:"unverified_parts"`
	profile    string
	elapsedS   float64
}

func (r childRun) ok() bool { return r.Err == "" }

// artifact is the full record of one benchmark run, written under
// .bench_out/ next to the one-line result.
type artifact struct {
	Cohort     cohort             `json:"cohort"`
	Seed       int64              `json:"seed"`
	Seconds    int                `json:"seconds"`
	Trace      bool               `json:"trace"`
	Correct    bool               `json:"correct"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Unverified int                `json:"unverified_parts"`
	Metrics    map[string]summary `json:"metrics"`
	Children   []childRun         `json:"children"`
}

type runner struct {
	bin    string
	w      workload
	seed   int64
	procs  int
	refs   map[string]string
	golden map[string]string // results/<name>.txt -> sha256, filled lazily
}

// spawn runs one child under the memory and wall-time ceilings and
// checks its output.
func (d *runner) spawn(seed int64, profile string, probe bool) childRun {
	run := childRun{Seed: seed, Traced: profile != "", Probe: probe, profile: profile}
	args := []string{"child", "-workload", d.w.name, "-seed", strconv.FormatInt(seed, 10), "-j", strconv.Itoa(d.procs)}
	if profile != "" {
		args = append(args, "-profile", profile)
	}
	if probe {
		args = append(args, "-probe")
	}
	res, setup, peak, elapsed, err := d.runChild(args)
	run.Result, run.SetupS, run.PeakRSSMB, run.elapsedS = res, setup, peak, elapsed
	if err == nil && !probe {
		run.Verified, run.Unverified, err = d.check(seed, res.Parts)
	}
	if err != nil {
		run.Err = err.Error()
	}
	return run
}

// runChild starts the benchmark binary as a child, watches its resident set
// and wall time, and decodes the result it writes to descriptor 3.
func (d *runner) runChild(args []string) (res childResult, setupS, peakMB, elapsedS float64, err error) {
	pr, pw, err := os.Pipe()
	if err != nil {
		return res, 0, 0, 0, err
	}
	defer pr.Close()
	cmd := exec.Command(d.bin, args...)
	cmd.Env = childEnv(d.procs)
	cmd.ExtraFiles = []*os.File{pw} // becomes resultFD
	var stderr tailBuffer
	cmd.Stdout, cmd.Stderr = io.Discard, &stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		pw.Close()
		return res, 0, 0, 0, err
	}
	pw.Close()

	var (
		wg     sync.WaitGroup
		out    []byte
		readEr error
		breach string // set by the watchdog only; read after wg.Wait
	)
	kill := func(why string) {
		if breach == "" {
			breach = why
		}
		_ = cmd.Process.Kill() // the child may already have exited
	}
	done := make(chan struct{})
	wg.Add(2)
	go func() {
		defer wg.Done()
		out, readEr = io.ReadAll(pr)
	}()
	go func() {
		defer wg.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		deadline := time.NewTimer(wallCeilingS * time.Second)
		defer deadline.Stop()
		for {
			select {
			case <-done:
				return
			case <-deadline.C:
				kill(fmt.Sprintf("wall-time ceiling %d s exceeded", wallCeilingS))
			case <-tick.C:
				if mb := residentMB(cmd.Process.Pid); mb > memCeilingMB {
					kill(fmt.Sprintf("memory ceiling %d MB exceeded (%.0f MB)", memCeilingMB, mb))
				}
			}
		}
	}()
	waitErr := cmd.Wait()
	elapsedS = time.Since(start).Seconds()
	close(done)
	wg.Wait()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		peakMB = float64(ru.Maxrss) / 1024 // Maxrss is in KB on Linux
	}
	switch {
	case breach != "":
		return res, 0, peakMB, elapsedS, errors.New(breach)
	case waitErr != nil:
		return res, 0, peakMB, elapsedS, fmt.Errorf("child %v: %s", waitErr, stderr.String())
	case readEr != nil:
		return res, 0, peakMB, elapsedS, readEr
	}
	if err := json.Unmarshal(out, &res); err != nil {
		return res, 0, peakMB, elapsedS, fmt.Errorf("child result: %v", err)
	}
	setupS = float64(res.HandoffUnixNs-start.UnixNano()) / 1e9
	return res, setupS, peakMB, elapsedS, nil
}

// childEnv pins GOMAXPROCS and drops the runtime tuning variables that
// would change timings without showing in the cohort.
func childEnv(procs int) []string {
	var env []string
	for _, kv := range os.Environ() {
		k, _, _ := strings.Cut(kv, "=")
		switch k {
		case "GOMAXPROCS", "GOGC", "GOMEMLIMIT", "GODEBUG":
			continue
		}
		env = append(env, kv)
	}
	return append(env, "GOMAXPROCS="+strconv.Itoa(procs))
}

// residentMB reads a process's current resident set from /proc; 0 when
// the process is gone.
func residentMB(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/statm", pid))
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// tailBuffer keeps the last few KB a child wrote to stderr, for the
// failure message.
type tailBuffer struct{ b []byte }

const tailMax = 4096

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.b = append(t.b, p...)
	if len(t.b) > tailMax {
		t.b = t.b[len(t.b)-tailMax:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string { return strings.TrimSpace(string(t.b)) }

// check compares a run's part digests with the expected parts of its
// seed: the committed golden where the part is a registered scenario at
// its registered size and seed, and the recorded reference otherwise.
func (d *runner) check(seed int64, got []partDigest) (verified, unverified int, err error) {
	want, err := d.w.parts(seed)
	if err != nil {
		return 0, 0, err
	}
	return checkParts(want, got, d.refs, d.goldenDigest)
}

func checkParts(want []part, got []partDigest, refs map[string]string, golden func(string) (string, error)) (verified, unverified int, err error) {
	if len(got) != len(want) {
		return 0, 0, fmt.Errorf("child rendered %d parts, want %d", len(got), len(want))
	}
	for i, p := range want {
		g := got[i]
		if g.Label != p.label {
			return 0, 0, fmt.Errorf("part %d is %s, want %s", i, g.Label, p.label)
		}
		checked := false
		if p.golden != "" {
			sum, err := golden(p.golden)
			if err != nil {
				return 0, 0, err
			}
			if sum != g.SHA256 {
				return 0, 0, fmt.Errorf("%s: output differs from results/%s.txt", p.label, p.golden)
			}
			checked = true
		}
		if ref, ok := refs[p.label]; ok {
			if ref != g.SHA256 {
				return 0, 0, fmt.Errorf("%s: output differs from the recorded reference", p.label)
			}
			checked = true
		}
		if checked {
			verified++
		} else {
			unverified++
		}
	}
	return verified, unverified, nil
}

func (d *runner) goldenDigest(name string) (string, error) {
	if sum, ok := d.golden[name]; ok {
		return sum, nil
	}
	data, err := os.ReadFile(filepath.Join("results", name+".txt"))
	if err != nil {
		return "", fmt.Errorf("golden for %s: %v", name, err)
	}
	sum := digest(data)
	d.golden[name] = sum
	return sum, nil
}

// measure runs children until the budget is spent (at least minRuns of
// them), each on the next seed of the run's sequence.
func (d *runner) measure(budgetS float64, traced bool, profDir string) []childRun {
	start := time.Now()
	var runs []childRun
	var durations []float64
	for i := 0; ; i++ {
		el := time.Since(start).Seconds()
		if i >= minRuns && el+summarize(durations).Median > budgetS {
			break
		}
		if el > 2*budgetS { // slow or failing children: bound the run
			break
		}
		profile := ""
		if traced {
			profile = filepath.Join(profDir, fmt.Sprintf("run%d.pprof", i))
		}
		r := d.spawn(childSeed(d.seed, i), profile, false)
		runs = append(runs, r)
		durations = append(durations, r.elapsedS)
	}
	return runs
}

// sameOutput fails a traced run whose digests differ from the untraced
// run of the same seed: output must not depend on tracing.
func sameOutput(untraced []childRun, traced []childRun) {
	for i := range traced {
		if i >= len(untraced) || !untraced[i].ok() || !traced[i].ok() {
			continue
		}
		a, b := untraced[i].Result.Parts, traced[i].Result.Parts
		for j := range a {
			if j >= len(b) || a[j].SHA256 != b[j].SHA256 {
				traced[i].Err = "traced output differs from the untraced run of the same seed"
				break
			}
		}
	}
}

// benchmark runs one workload measurement and prints its result.
func benchmark(w workload, seed int64, seconds int, trace bool, procs int) error {
	bin, err := os.Executable()
	if err != nil {
		return err
	}
	refs, err := loadRefs()
	if err != nil {
		return err
	}
	coh, err := cohortFor(w, procs, seconds)
	if err != nil {
		return err
	}
	d := &runner{bin: bin, w: w, seed: seed, procs: procs, refs: refs[w.name], golden: map[string]string{}}
	key := fmt.Sprintf("%s-seed%d-trace%d", w.name, seed, b2i(trace))
	profDir := filepath.Join(outDir, key+"-prof")
	if trace {
		if err := os.MkdirAll(profDir, 0o755); err != nil {
			return err
		}
	}

	budget := float64(seconds)
	if trace {
		budget /= 2
	}
	untraced := d.measure(budget, false, "")
	var traced []childRun
	if trace {
		traced = d.measure(budget, true, profDir)
		sameOutput(untraced, traced)
	}
	var probes []childRun
	for i := 0; i < setupProbes; i++ {
		probes = append(probes, d.spawn(childSeed(seed, i), "", true))
	}

	a := artifact{Cohort: coh, Seed: seed, Seconds: seconds, Trace: trace, Metrics: map[string]summary{}}
	a.Children = append(append(append(a.Children, untraced...), traced...), probes...)
	for _, r := range a.Children {
		a.Attempted++
		if !r.ok() {
			a.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s run at seed %d failed: %s\n", w.name, r.Seed, r.Err)
		}
		a.Unverified += r.Unverified
	}
	a.Correct = a.Failed == 0
	endToEnd(a.Metrics, untraced, probes)
	if trace {
		if err := perLayer(a.Metrics, untraced, traced, procs, profDir+".txt"); err != nil {
			return err
		}
	}

	if err := writeArtifact(key, a); err != nil {
		return err
	}
	report(os.Stdout, a)
	return nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// endToEnd summarizes the untraced runs: wall, CPU, set-up and memory.
func endToEnd(m map[string]summary, untraced, probes []childRun) {
	var wall, cpu, setup, rss []float64
	for _, r := range untraced {
		if r.ok() {
			wall = append(wall, r.Result.WallS)
			cpu = append(cpu, r.Result.CPUS)
			setup = append(setup, r.SetupS)
			rss = append(rss, r.PeakRSSMB)
		}
	}
	for _, r := range probes {
		if r.ok() {
			setup = append(setup, r.SetupS)
		}
	}
	m["wall_s"] = summarize(wall)
	m["cpu_s"] = summarize(cpu)
	m["setup_s"] = summarize(setup)
	m["peak_rss_mb"] = summarize(rss)
}

func writeArtifact(key string, a artifact) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, key+".json"), append(data, '\n'), 0o644)
}

// report prints the human-readable summary, then the one-line result.
func report(out io.Writer, a artifact) {
	c := a.Cohort
	fmt.Fprintf(out, "cohort: workload=%s gomaxprocs=%d j=%d shards=%d nproc=%d cpu=%q go=%s config=%s\n",
		c.Workload, c.GOMAXPROCS, c.Jobs, c.Shards, c.NProc, c.CPUModel, c.GoVersion, c.ConfigHash)
	fmt.Fprintf(out, "runs: attempted=%d failed=%d fail_frac=%.4f unverified_parts=%d\n",
		a.Attempted, a.Failed, float64(a.Failed)/float64(max(a.Attempted, 1)), a.Unverified)
	names := metricNames(a.Trace)
	for _, n := range names {
		s := a.Metrics[n.name]
		spread := fmt.Sprintf("iqr=%.6g", s.Q3-s.Q1)
		if s.Pooled {
			spread = "pooled"
		}
		fmt.Fprintf(out, "%-24s %12.6g %-6s %s n=%d\n", n.name, s.Median, n.unit, spread, s.N)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{a.Correct, a.Attempted, a.Failed, map[string]value{}}
	for _, n := range names {
		res.Metrics[n.name] = value{a.Metrics[n.name].Median, n.unit}
	}
	line, _ := json.Marshal(res) // plain structs of numbers and strings
	fmt.Fprintf(out, "%s\n", line)
}

type metricName struct{ name, unit string }

// metricNames lists the metrics the one-line result carries: the
// end-to-end ones untraced, the per-layer ones traced.
func metricNames(trace bool) []metricName {
	if !trace {
		return []metricName{{"wall_s", "s"}, {"cpu_s", "s"}, {"setup_s", "s"}, {"peak_rss_mb", "MB"}}
	}
	var out []metricName
	for _, l := range layers {
		out = append(out, metricName{l + ".self_s", "s"})
	}
	out = append(out, metricName{"sim.heap_s", "s"})
	for _, ep := range entryPoints {
		out = append(out, metricName{ep.metric, "s"})
	}
	return append(out,
		metricName{"parallel.util", "frac"},
		metricName{"runtime.gc_s", "s"},
		metricName{"runtime.alloc_mb", "MB"},
		metricName{"runtime.mallocs", "count"},
		metricName{"runtime.gc_cycles", "count"},
		metricName{"trace.overhead_frac", "frac"},
	)
}
