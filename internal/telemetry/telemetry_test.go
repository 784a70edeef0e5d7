package telemetry

import (
	"testing"

	"odpsim/internal/sim"
)

func TestLabelsRenderSortedAndMerged(t *testing.T) {
	r := NewRegistry(Labels{"device": "node0", "zone": "a"})
	var v uint64
	r.Counter("x", "h", Labels{"qpn": "3", "zone": "b"}, &v)
	s := r.Snapshot(0)
	want := `{device="node0",qpn="3",zone="b"}`
	if got := s.Samples[0].Labels; got != want {
		t.Errorf("labels = %s, want %s (sorted keys, specific wins)", got, want)
	}
}

func TestRegistryRejectsBadRegistrations(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	r := NewRegistry(nil)
	var v uint64
	r.Counter("dup", "h", nil, &v)
	mustPanic("duplicate", func() { r.Counter("dup", "h", nil, &v) })
	mustPanic("nil counter", func() { r.Counter("niladic", "h", nil, nil) })
	mustPanic("nil gauge", func() { r.Gauge("g", "h", nil, nil) })
	// Same name under different labels is fine.
	r.Counter("dup", "h", Labels{"qpn": "1"}, &v)
	if r.Len() != 2 {
		t.Errorf("Len = %d, want 2", r.Len())
	}
}

// TestHubRejectsCrossRegistryDuplicate puts two registries with the
// same common labels and one shared metric name into a Hub: each
// registry is valid alone, but the Hub snapshot would carry two samples
// for one series, so it must panic instead of letting Get pick one and
// Delta merge them.
func TestHubRejectsCrossRegistryDuplicate(t *testing.T) {
	var a, b, other uint64
	ra := NewRegistry(Labels{"device": "d"})
	rb := NewRegistry(Labels{"device": "d"})
	ra.Counter("tx", "h", nil, &a)
	ra.Counter("aaa", "h", nil, &other)
	rb.Counter("tx", "h", nil, &b)
	defer func() {
		want := `telemetry: duplicate metric tx{device="d"}`
		if got := recover(); got != want {
			t.Errorf("panic = %v, want %q", got, want)
		}
	}()
	NewHub(ra, rb).Snapshot(0)
}

func TestSnapshotReadsLiveStorage(t *testing.T) {
	r := NewRegistry(Labels{"device": "d"})
	var hits uint64
	depth := 7.0
	r.Counter("hits", "h", nil, &hits)
	r.Gauge("depth", "h", nil, func() float64 { return depth })

	s0 := r.Snapshot(0)
	hits = 41
	depth = 3
	s1 := r.Snapshot(10)

	if v, _ := s0.Get("hits", `{device="d"}`); v != 0 {
		t.Errorf("s0 hits = %v", v)
	}
	if v, ok := s1.Get("hits", `{device="d"}`); !ok || v != 41 {
		t.Errorf("s1 hits = %v %v", v, ok)
	}
	if v, _ := s1.Get("depth", `{device="d"}`); v != 3 {
		t.Errorf("s1 depth = %v", v)
	}
	if _, ok := s1.Get("absent", ""); ok {
		t.Error("Get(absent) = ok")
	}
	// s0 must be unaffected by later increments (values copied out).
	if v, _ := s0.Get("hits", `{device="d"}`); v != 0 {
		t.Error("snapshot aliased live storage")
	}
}

func TestSnapshotSortedAndTotal(t *testing.T) {
	ra := NewRegistry(Labels{"device": "b"})
	rb := NewRegistry(Labels{"device": "a"})
	var x, y, z uint64 = 1, 2, 4
	ra.Counter("m", "h", nil, &x)
	rb.Counter("m", "h", nil, &y)
	rb.Counter("aaa", "h", nil, &z)
	s := NewHub(ra, rb).Snapshot(5)
	if s.At != 5 {
		t.Errorf("At = %v", s.At)
	}
	for i := 1; i < len(s.Samples); i++ {
		a, b := s.Samples[i-1], s.Samples[i]
		if a.Name > b.Name || (a.Name == b.Name && a.Labels > b.Labels) {
			t.Fatalf("unsorted: %v before %v", a, b)
		}
	}
	if got := s.Total("m"); got != 3 {
		t.Errorf("Total(m) = %v, want 3", got)
	}
	if got := s.Total("absent"); got != 0 {
		t.Errorf("Total(absent) = %v", got)
	}
}

func TestDelta(t *testing.T) {
	r := NewRegistry(nil)
	var c uint64 = 10
	g := 100.0
	r.Counter("c", "h", nil, &c)
	r.Gauge("g", "h", nil, func() float64 { return g })
	prev := r.Snapshot(0)
	c, g = 25, 60
	// A metric born after prev: counts from zero.
	var born uint64 = 5
	r.Counter("born", "h", nil, &born)
	cur := r.Snapshot(9)

	d := Delta(prev, cur)
	if d.At != 9 {
		t.Errorf("At = %v", d.At)
	}
	if v, _ := d.Get("c", ""); v != 15 {
		t.Errorf("counter delta = %v, want 15", v)
	}
	if v, _ := d.Get("g", ""); v != 60 {
		t.Errorf("gauge in delta = %v, want current 60", v)
	}
	if v, _ := d.Get("born", ""); v != 5 {
		t.Errorf("new counter delta = %v, want 5", v)
	}
}

func TestKindString(t *testing.T) {
	if KindCounter.String() != "counter" || KindGauge.String() != "gauge" {
		t.Error("Kind.String mismatch")
	}
}

func TestSamplerOnSimClock(t *testing.T) {
	eng := sim.New(1)
	r := NewRegistry(nil)
	var ops uint64
	r.Counter("ops", "h", nil, &ops)
	sampler := NewSampler(eng, NewHub(r), 10*sim.Millisecond)
	eng.Go("driver", func(p *sim.Proc) {
		sampler.Start()
		for i := 0; i < 5; i++ {
			ops++
			p.Sleep(10 * sim.Millisecond)
		}
		p.Sleep(5 * sim.Millisecond) // stop off the sampling grid
		sampler.Stop()
	})
	eng.MustRun()

	ts := sampler.Series()
	// t=0 (immediate), 10,20,30,40,50ms (recurring), 55ms (final).
	if ts.Len() != 7 {
		t.Fatalf("Len = %d, want 7 (times %v)", ts.Len(), ts.Times())
	}
	times := ts.Times()
	if times[0] != 0 || times[6] != 55*sim.Millisecond {
		t.Errorf("times = %v", times)
	}
	sums := ts.Sum("ops")
	// The timer armed at each grid instant precedes the driver's wake
	// there, so the t=10k ms sample sees exactly k increments.
	want := []float64{0, 1, 2, 3, 4, 5, 5}
	for i := range want {
		if sums[i] != want[i] {
			t.Fatalf("Sum(ops) = %v, want %v", sums, want)
		}
	}
	// Stop is idempotent and must not add samples.
	sampler.Stop()
	if ts.Len() != 7 {
		t.Error("Stop after Stop added a sample")
	}
}

func TestSamplerStopOnGridTakesNoDuplicate(t *testing.T) {
	eng := sim.New(1)
	r := NewRegistry(nil)
	var v uint64
	r.Counter("v", "h", nil, &v)
	sampler := NewSampler(eng, NewHub(r), 10*sim.Millisecond)
	eng.Go("driver", func(p *sim.Proc) {
		sampler.Start()
		p.Sleep(20 * sim.Millisecond)
		sampler.Stop() // exactly on a sampling instant
	})
	eng.MustRun()
	times := sampler.Series().Times()
	for i := 1; i < len(times); i++ {
		if times[i] == times[i-1] {
			t.Errorf("duplicate sample instant: %v", times)
		}
	}
}

func TestSamplerClampsInterval(t *testing.T) {
	eng := sim.New(1)
	s := NewSampler(eng, NewHub(), 1) // 1 ns would run wild
	if s.interval != sim.Microsecond {
		t.Errorf("interval = %v, want clamped to 1µs", s.interval)
	}
}
