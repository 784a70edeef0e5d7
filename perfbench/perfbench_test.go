package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

func TestFoldRuntimeHelperCountsAgainstCaller(t *testing.T) {
	f := newFolded()
	f.add(stack{ns: 10, frames: []string{
		"memeqbody",
		"runtime.mapaccess2_faststr",
		"odpsim/internal/telemetry.(*Registry).add",
		"odpsim/internal/telemetry.(*Registry).Counter",
		"odpsim/internal/rnic.(*RNIC).CreateQP",
		"odpsim/internal/apps/sparkucx.MeasureRow",
		"runtime.goexit",
	}})
	if f.self["telemetry"] != 10 || f.total != 10 {
		t.Fatalf("self %v total %d, want all 10 ns on telemetry", f.self, f.total)
	}
	for _, m := range []string{"telemetry.register_s", "rnic.create_qp_s"} {
		if f.cum[m] != 10 {
			t.Errorf("%s = %d, want 10", m, f.cum[m])
		}
	}
	if f.cum["sim.run_s"] != 0 {
		t.Errorf("sim.run_s = %d, want 0", f.cum["sim.run_s"])
	}
}

func TestFoldStackWithoutModuleFrameIsRuntime(t *testing.T) {
	f := newFolded()
	f.add(stack{ns: 7, frames: []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack"}})
	if f.self["runtime"] != 7 {
		t.Fatalf("self %v, want 7 ns on runtime", f.self)
	}
}

func TestFoldLayersAndHeap(t *testing.T) {
	f := newFolded()
	f.add(stack{ns: 3, frames: []string{
		"odpsim/internal/sim.eventHeap.siftDown",
		"odpsim/internal/sim.(*Engine).popMin",
		"odpsim/internal/sim.(*Engine).Step",
		"odpsim/internal/sim.(*Engine).RunHorizon",
		"odpsim/internal/shard.(*Group).startWorkers.func1",
	}})
	f.add(stack{ns: 5, frames: []string{"odpsim/internal/apps/sparkucx.Run"}})
	f.add(stack{ns: 2, frames: []string{"odpsim/internal/capture.(*Capture).Record"}})
	want := map[string]int64{"sim": 3, "apps": 5, "other": 2}
	for l, ns := range want {
		if f.self[l] != ns {
			t.Errorf("%s.self = %d, want %d", l, f.self[l], ns)
		}
	}
	if f.heap != 3 {
		t.Errorf("heap = %d, want 3", f.heap)
	}
	if f.cum["sim.run_s"] != 3 || f.cum["shard.run_s"] != 3 {
		t.Errorf("cum %v, want sim.run_s and shard.run_s 3", f.cum)
	}
}

// pb is a minimal protobuf encoder for building synthetic profiles.
type pb struct{ b []byte }

func (p *pb) varint(field int, v uint64) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3)
	p.b = binary.AppendUvarint(p.b, v)
	return p
}

func (p *pb) bytes(field int, data []byte) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(data)))
	p.b = append(p.b, data...)
	return p
}

func packed(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

func TestReadProfileExpandsInlinedFrames(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"memeqbody", "odpsim/internal/telemetry.(*Registry).add", "odpsim/internal/rnic.(*RNIC).CreateQP"}
	var prof pb
	prof.bytes(1, (&pb{}).varint(1, 1).varint(2, 2).b)
	prof.bytes(1, (&pb{}).varint(1, 3).varint(2, 4).b)
	// One sample: location 1 (memeqbody) under location 2, which holds
	// Registry.add inlined into CreateQP.
	prof.bytes(2, (&pb{}).bytes(1, packed(1, 2)).bytes(2, packed(1, 10_000_000)).b)
	prof.bytes(4, (&pb{}).varint(1, 1).bytes(4, (&pb{}).varint(1, 1).b).b)
	prof.bytes(4, (&pb{}).varint(1, 2).bytes(4, (&pb{}).varint(1, 2).b).bytes(4, (&pb{}).varint(1, 3).b).b)
	for id, name := range []uint64{5, 6, 7} {
		prof.bytes(5, (&pb{}).varint(1, uint64(id+1)).varint(2, name).b)
	}
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof.b)
	zw.Close()

	stacks, err := readProfile(&gz)
	if err != nil {
		t.Fatal(err)
	}
	if len(stacks) != 1 || stacks[0].ns != 10_000_000 {
		t.Fatalf("stacks %+v, want one 10ms sample", stacks)
	}
	got := strings.Join(stacks[0].frames, " < ")
	want := "memeqbody < odpsim/internal/telemetry.(*Registry).add < odpsim/internal/rnic.(*RNIC).CreateQP"
	if got != want {
		t.Fatalf("frames %s, want %s", got, want)
	}
}

func TestOneByteChangeFailsTheRun(t *testing.T) {
	out := []byte("Table 13: SparkUCX examples\nKNL (2) 1.0 2.0\n")
	want := []part{{label: "shuffle-tab13@7"}}
	refs := map[string]string{"shuffle-tab13@7": digest(out)}
	noGolden := func(string) (string, error) { t.Fatal("no golden expected"); return "", nil }

	if v, u, err := checkParts(want, []partDigest{{Label: "shuffle-tab13@7", SHA256: digest(out)}}, refs, noGolden); err != nil || v != 1 || u != 0 {
		t.Fatalf("unchanged output: verified %d unverified %d err %v", v, u, err)
	}
	changed := append([]byte(nil), out...)
	changed[len(changed)-2] = '1'
	if _, _, err := checkParts(want, []partDigest{{Label: "shuffle-tab13@7", SHA256: digest(changed)}}, refs, noGolden); err == nil {
		t.Fatal("a one-byte change passed the reference check")
	}
}

func TestGoldenMismatchFailsAndMissingRefIsUnverified(t *testing.T) {
	golden := []byte("irn-storm golden\n")
	lookup := func(name string) (string, error) { return digest(golden), nil }
	want := []part{{label: "irn-storm@1", golden: "irn-storm"}, {label: "irn-storm@9"}}
	got := []partDigest{{Label: "irn-storm@1", SHA256: digest(golden)}, {Label: "irn-storm@9", SHA256: digest([]byte("x"))}}
	v, u, err := checkParts(want, got, nil, lookup)
	if err != nil || v != 1 || u != 1 {
		t.Fatalf("verified %d unverified %d err %v, want 1 and 1", v, u, err)
	}
	got[0].SHA256 = digest([]byte("irn-storm golden!\n"))
	if _, _, err := checkParts(want, got, nil, lookup); err == nil {
		t.Fatal("output differing from its golden passed")
	}
}

func TestCohortMismatchIsNotComparable(t *testing.T) {
	c := cohort{Workload: "storm", GOMAXPROCS: 2, Jobs: 2, NProc: 2, CPUModel: "x", GoVersion: "go1.24.0", ConfigHash: "abc"}
	a := artifact{Cohort: c, Metrics: map[string]summary{"wall_s": {Median: 4}}}
	b := artifact{Cohort: c, Metrics: map[string]summary{"wall_s": {Median: 3}}}
	if out := compareArtifacts(a, b); strings.Contains(out, "not comparable") || !strings.Contains(out, "-25.0%") {
		t.Fatalf("same cohort: %q", out)
	}
	b.Cohort.GOMAXPROCS = 1
	out := compareArtifacts(a, b)
	if !strings.HasPrefix(out, "not comparable") || !strings.Contains(out, "gomaxprocs") || strings.Contains(out, "wall_s") {
		t.Fatalf("different cohort: %q", out)
	}
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// Expected values from statistics.quantiles(v, n=4) and median(v).
	cases := []struct {
		v         []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 4, 1, 5}, 1, 3, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{2.5, 1.5, 9, 7, 3, 3, 8}, 2.5, 3, 8},
	}
	for _, c := range cases {
		s := summarize(c.v)
		if math.Abs(s.Q1-c.q1) > 1e-12 || math.Abs(s.Median-c.m) > 1e-12 || math.Abs(s.Q3-c.q3) > 1e-12 {
			t.Errorf("%v: got %+v, want q1 %g median %g q3 %g", c.v, s, c.q1, c.m, c.q3)
		}
	}
}

func TestChildSeedsWalkThePoolOncePerPass(t *testing.T) {
	for _, runSeed := range []int64{1, 42} {
		seen := map[int64]bool{}
		for child := 0; child < poolSize; child++ {
			s := childSeed(runSeed, child)
			if s < 1 || s > poolSize || seen[s] {
				t.Fatalf("--seed %d child %d drew %d: out of pool or repeated within a pass", runSeed, child, s)
			}
			seen[s] = true
			if childSeed(runSeed, child+poolSize) != s {
				t.Fatalf("--seed %d: second pass differs at child %d", runSeed, child)
			}
		}
	}
	if childSeed(1, 0) == childSeed(42, 0) && childSeed(1, 1) == childSeed(42, 1) {
		t.Fatal("different --seed values draw the same sequence")
	}
}
