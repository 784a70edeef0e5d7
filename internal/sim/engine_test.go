package sim

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500 * Nanosecond, "500ns"},
		{12300 * Nanosecond, "12.30µs"},
		{4500 * Microsecond, "4.50ms"},
		{1200 * Millisecond, "1.200s"},
		{-3 * Millisecond, "-3.00ms"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if FromSeconds(1.5) != 1500*Millisecond {
		t.Errorf("FromSeconds(1.5) = %v", FromSeconds(1.5))
	}
	if FromMicros(4.096) != 4096*Nanosecond {
		t.Errorf("FromMicros(4.096) = %v", FromMicros(4.096))
	}
	if FromMillis(0.5) != 500*Microsecond {
		t.Errorf("FromMillis(0.5) = %v", FromMillis(0.5))
	}
	if got := (2500 * Microsecond).Millis(); got != 2.5 {
		t.Errorf("Millis = %v", got)
	}
	if got := (2500 * Microsecond).Seconds(); got != 0.0025 {
		t.Errorf("Seconds = %v", got)
	}
	if got := (3 * Microsecond).Micros(); got != 3 {
		t.Errorf("Micros = %v", got)
	}
}

func TestEventOrdering(t *testing.T) {
	e := New(1)
	var order []int
	e.After(10, func() { order = append(order, 2) })
	e.After(5, func() { order = append(order, 1) })
	e.After(10, func() { order = append(order, 3) }) // same instant: FIFO
	e.After(20, func() { order = append(order, 4) })
	e.Run()
	want := []int{1, 2, 3, 4}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 20 {
		t.Errorf("Now = %v, want 20", e.Now())
	}
	if e.EventsFired() != 4 {
		t.Errorf("EventsFired = %d", e.EventsFired())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New(1)
	e.After(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestTimerCancel(t *testing.T) {
	e := New(1)
	fired := false
	tm := e.After(10, func() { fired = true })
	if !tm.Pending() {
		t.Error("timer should be pending")
	}
	if !tm.Cancel() {
		t.Error("Cancel should report true on a pending timer")
	}
	if tm.Cancel() {
		t.Error("second Cancel should report false")
	}
	e.Run()
	if fired {
		t.Error("cancelled timer fired")
	}
	if tm.Pending() {
		t.Error("cancelled timer still pending")
	}
}

func TestTimerCancelAfterFire(t *testing.T) {
	e := New(1)
	tm := e.After(1, func() {})
	e.Run()
	if tm.Cancel() {
		t.Error("Cancel after fire should report false")
	}
}

func TestRunUntil(t *testing.T) {
	e := New(1)
	var fired []Time
	for _, d := range []Time{5, 10, 15, 20} {
		d := d
		e.After(d, func() { fired = append(fired, d) })
	}
	e.RunUntil(12)
	if len(fired) != 2 {
		t.Fatalf("fired = %v, want 2 events", fired)
	}
	if e.Now() != 12 {
		t.Errorf("Now = %v, want 12", e.Now())
	}
	e.Run()
	if len(fired) != 4 {
		t.Errorf("fired = %v, want 4 events", fired)
	}
}

func TestStop(t *testing.T) {
	e := New(1)
	n := 0
	e.After(1, func() { n++; e.Stop() })
	e.After(2, func() { n++ })
	e.Run()
	if n != 1 {
		t.Errorf("n = %d, want 1 (Stop should halt Run)", n)
	}
	e.Run() // resumes
	if n != 2 {
		t.Errorf("n = %d, want 2 after resuming", n)
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New(1)
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 100 {
			e.After(1, rec)
		}
	}
	e.After(0, rec)
	e.Run()
	if depth != 100 {
		t.Errorf("depth = %d, want 100", depth)
	}
	if e.Now() != 99 {
		t.Errorf("Now = %v, want 99", e.Now())
	}
}

// Property: for any set of delays, events fire in nondecreasing time order
// and ties fire in scheduling order.
func TestEventOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		e := New(7)
		type rec struct {
			at  Time
			seq int
		}
		var got []rec
		for i, d := range delays {
			i, at := i, Time(d%1000)
			e.After(at, func() { got = append(got, rec{at, i}) })
		}
		e.Run()
		if len(got) != len(delays) {
			return false
		}
		if !sort.SliceIsSorted(got, func(i, j int) bool {
			if got[i].at != got[j].at {
				return got[i].at < got[j].at
			}
			return got[i].seq < got[j].seq
		}) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(42))}); err != nil {
		t.Error(err)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int64 {
		e := New(123)
		var samples []int64
		var loop func()
		n := 0
		loop = func() {
			samples = append(samples, int64(e.Uniform(0, 1000)), int64(e.Now()))
			n++
			if n < 50 {
				e.After(e.Uniform(1, 100), loop)
			}
		}
		e.After(0, loop)
		e.Run()
		return samples
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different lengths")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestUniformBounds(t *testing.T) {
	e := New(5)
	for i := 0; i < 1000; i++ {
		v := e.Uniform(10, 20)
		if v < 10 || v > 20 {
			t.Fatalf("Uniform out of bounds: %v", v)
		}
	}
	if e.Uniform(30, 30) != 30 {
		t.Error("degenerate Uniform should return lo")
	}
	if e.Uniform(30, 10) != 30 {
		t.Error("inverted Uniform should return lo")
	}
}

func TestJitterBounds(t *testing.T) {
	e := New(5)
	base := 100 * Microsecond
	for i := 0; i < 1000; i++ {
		v := e.Jitter(base, 0.1)
		if v < 90*Microsecond || v > 110*Microsecond {
			t.Fatalf("Jitter out of bounds: %v", v)
		}
	}
	if e.Jitter(base, 0) != base {
		t.Error("zero-frac Jitter should return base")
	}
}

func TestNormalTruncation(t *testing.T) {
	e := New(5)
	for i := 0; i < 1000; i++ {
		if v := e.Normal(10, 1000); v < 0 {
			t.Fatalf("Normal returned negative %v", v)
		}
	}
}

func TestBernoulli(t *testing.T) {
	e := New(5)
	if e.Bernoulli(0) {
		t.Error("Bernoulli(0) = true")
	}
	if !e.Bernoulli(1) {
		t.Error("Bernoulli(1) = false")
	}
	n := 0
	for i := 0; i < 10000; i++ {
		if e.Bernoulli(0.3) {
			n++
		}
	}
	if n < 2700 || n > 3300 {
		t.Errorf("Bernoulli(0.3) hit %d/10000 times", n)
	}
}

// TestCancelRemovesFromHeap pins the eager-removal regression: cancelling
// a timer must drop QueueLen immediately instead of leaving a dead entry
// in the heap until popped (the RC requester cancels a retransmit timer
// on nearly every ACK, so lazy deletion accumulates a tail of dead
// entries through timeout-heavy runs).
func TestCancelRemovesFromHeap(t *testing.T) {
	e := New(1)
	timers := make([]Timer, 100)
	for i := range timers {
		timers[i] = e.After(Time(i+1), func() {})
	}
	if e.QueueLen() != 100 {
		t.Fatalf("QueueLen = %d, want 100", e.QueueLen())
	}
	for i, tm := range timers {
		if i%2 == 0 {
			tm.Cancel()
		}
	}
	if e.QueueLen() != 50 {
		t.Errorf("QueueLen after cancelling half = %d, want 50", e.QueueLen())
	}
	fired := 0
	for e.Step() {
		fired++
	}
	if fired != 50 {
		t.Errorf("fired = %d, want 50", fired)
	}
}

// TestCancelMidHeap cancels from the middle of a larger randomized heap
// and checks the survivors still fire in order.
func TestCancelMidHeap(t *testing.T) {
	e := New(9)
	var fired []Time
	var timers []Timer
	for i := 0; i < 500; i++ {
		d := e.Uniform(1, 1000)
		timers = append(timers, e.After(d, func() { fired = append(fired, e.Now()) }))
	}
	for i := 0; i < 500; i += 3 {
		if !timers[i].Cancel() {
			t.Fatalf("Cancel %d reported not pending", i)
		}
		if timers[i].Pending() {
			t.Fatalf("timer %d still pending after cancel", i)
		}
	}
	e.Run()
	if len(fired) != 500-167 {
		t.Errorf("fired %d events, want %d", len(fired), 500-167)
	}
	if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
		t.Error("survivors fired out of order")
	}
}

// TestRecycledEventTimerIsInert schedules through the free list and
// checks a stale Timer (whose event storage was recycled into a new
// schedule) neither reports Pending nor cancels the new event.
func TestRecycledEventTimerIsInert(t *testing.T) {
	e := New(1)
	stale := e.After(1, func() {})
	e.Run() // fires; event storage recycled

	fired := false
	fresh := e.After(5, func() { fired = true }) // reuses the recycled event
	if stale.Pending() {
		t.Error("stale timer reports pending after its event was recycled")
	}
	if stale.Cancel() {
		t.Error("stale Cancel reported true")
	}
	e.Run()
	if !fired {
		t.Error("stale Cancel killed the recycled event's new schedule")
	}
	if fresh.Pending() {
		t.Error("fired fresh timer still pending")
	}
}

// TestReset checks a Reset engine reproduces a fresh engine exactly —
// clock, sequence, random stream and event storage behaviour.
func TestReset(t *testing.T) {
	run := func(e *Engine) []int64 {
		var samples []int64
		n := 0
		var loop func()
		loop = func() {
			samples = append(samples, int64(e.Uniform(0, 1000)), int64(e.Now()), int64(e.EventsFired()))
			if n++; n < 40 {
				e.After(e.Uniform(1, 50), loop)
			}
		}
		e.After(0, loop)
		// Schedule-and-cancel noise so the free list sees traffic.
		tm := e.After(10000, func() {})
		tm.Cancel()
		e.Run()
		return samples
	}
	fresh := run(New(77))
	reused := New(5)
	run(reused) // dirty the engine with a different seed
	reused.Reset(77)
	if reused.Now() != 0 || reused.EventsFired() != 0 || reused.QueueLen() != 0 {
		t.Fatalf("Reset left state: now=%v fired=%d queue=%d",
			reused.Now(), reused.EventsFired(), reused.QueueLen())
	}
	got := run(reused)
	if len(got) != len(fresh) {
		t.Fatalf("lengths differ: %d vs %d", len(got), len(fresh))
	}
	for i := range got {
		if got[i] != fresh[i] {
			t.Fatalf("sample %d differs after Reset: %d vs %d", i, got[i], fresh[i])
		}
	}
}

// TestResetDropsPendingEvents checks events left in the heap (after a
// Stop) do not leak into the next run.
func TestResetDropsPendingEvents(t *testing.T) {
	e := New(1)
	leaked := false
	e.After(1, func() { e.Stop() })
	e.After(2, func() { leaked = true })
	e.Run()
	if e.QueueLen() != 1 {
		t.Fatalf("QueueLen = %d, want 1 pending", e.QueueLen())
	}
	e.Reset(1)
	if e.QueueLen() != 0 {
		t.Errorf("QueueLen after Reset = %d", e.QueueLen())
	}
	e.After(5, func() {})
	e.Run()
	if leaked {
		t.Error("pre-Reset event fired after Reset")
	}
}

// TestEngineAllocsFlat checks the free list keeps steady-state scheduling
// allocation-free: after warmup, a schedule/cancel/fire loop on a Reset
// engine must not allocate per event.
func TestEngineAllocsFlat(t *testing.T) {
	e := New(1)
	loop := func() {
		e.Reset(1)
		var pending Timer
		for j := 0; j < 256; j++ {
			pending.Cancel() // no-op on the zero Timer
			pending = e.After(Time(j+1), func() {})
			e.schedule(Time(j+1), func() {})
		}
		e.Run()
	}
	loop() // warm the free list
	avg := testing.AllocsPerRun(20, loop)
	// Timer is a value handle and events come from the free list, so a
	// warmed schedule/cancel/fire loop allocates nothing per event.
	if avg > 8 {
		t.Errorf("allocs per loop = %v, want ≤ 8 (free list not recycling)", avg)
	}
}

// TestScheduleOrderingMatchesAt checks the lite fire-and-forget path
// (Schedule/ScheduleAfter) shares one sequence counter with At/After:
// same-instant callbacks fire in scheduling order regardless of which
// API queued them, so mixing the two paths changes nothing observable.
func TestScheduleOrderingMatchesAt(t *testing.T) {
	e := New(1)
	var order []int
	e.Schedule(10, func() { order = append(order, 1) })
	e.After(10, func() { order = append(order, 2) })
	e.ScheduleAfter(10, func() { order = append(order, 3) })
	e.At(5, func() { order = append(order, 0) })
	e.ScheduleAfter(-3, func() { order = append(order, -1) }) // clamped to now
	e.Run()
	want := []int{-1, 0, 1, 2, 3}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("fire order = %v, want %v", order, want)
		}
	}
	if e.QueueLen() != 0 {
		t.Errorf("QueueLen = %d after Run, want 0", e.QueueLen())
	}
}

// TestScheduleDroppedByReset checks Reset discards pending lite
// callbacks like tracked events, and the engine stays reusable.
func TestScheduleDroppedByReset(t *testing.T) {
	e := New(1)
	leaked := false
	e.Schedule(5, func() { leaked = true })
	e.Reset(2)
	fired := false
	e.ScheduleAfter(1, func() { fired = true })
	e.Run()
	if leaked {
		t.Error("pre-Reset lite callback fired after Reset")
	}
	if !fired {
		t.Error("post-Reset lite callback did not fire")
	}
}

// TestScheduleCancelInterleaved exercises Timer.Cancel against a heap
// holding lite slots: removal sifts move both kinds, and only tracked
// events carry a heap index. A cancelled timer must not disturb the lite
// callbacks around it.
func TestScheduleCancelInterleaved(t *testing.T) {
	e := New(1)
	var fired []int
	timers := make([]Timer, 0, 8)
	for i := 0; i < 8; i++ {
		i := i
		e.Schedule(Time(10+i), func() { fired = append(fired, i) })
		timers = append(timers, e.After(Time(10+i), func() { fired = append(fired, 100+i) }))
	}
	for i := 0; i < 8; i += 2 {
		if !timers[i].Cancel() {
			t.Fatalf("timer %d did not cancel", i)
		}
	}
	e.Run()
	want := []int{0, 1, 101, 2, 3, 103, 4, 5, 105, 6, 7, 107}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}

// TestPreallocEvents checks pre-sizing: after PreallocEvents(n), a burst
// of n tracked and lite schedules plus the run to drain them allocates
// nothing — the switched congestion network relies on this to keep cold
// trials off the allocator too.
func TestPreallocEvents(t *testing.T) {
	e := New(1)
	e.PreallocEvents(64)
	fn := func() {}
	loop := func() {
		e.Reset(1)
		for j := 0; j < 32; j++ {
			e.After(Time(j+1), fn)
			e.Schedule(Time(j+1), fn)
		}
		e.Run()
	}
	loop()
	if avg := testing.AllocsPerRun(10, loop); avg > 0 {
		t.Errorf("allocs per pre-sized loop = %v, want 0", avg)
	}
}

// TestReserveSeqTieBreak checks that a callback scheduled late with a
// reserved sequence number keeps its reservation-order priority over
// same-instant events scheduled after the reservation. This is the
// contract the propagation delay lines depend on: only the head flight
// sits in the heap, yet ties resolve exactly as if every flight had been
// scheduled eagerly.
func TestReserveSeqTieBreak(t *testing.T) {
	e := New(1)
	var fired []string
	seq := e.ReserveSeq()
	e.Schedule(5, func() { fired = append(fired, "later") })
	// Reserved earlier, scheduled later: must still run first at t=5.
	e.ScheduleSeq(5, seq, func() { fired = append(fired, "reserved") })
	e.Run()
	if len(fired) != 2 || fired[0] != "reserved" || fired[1] != "later" {
		t.Fatalf("fired %v, want [reserved later]", fired)
	}
}

// TestNextEventTime checks the coordinator's peek primitive: it reports
// the earliest scheduled timestamp without popping or advancing anything.
func TestNextEventTime(t *testing.T) {
	e := New(1)
	if _, ok := e.NextEventTime(); ok {
		t.Fatal("empty engine reports a next event")
	}
	e.Schedule(7, func() {})
	e.Schedule(3, func() {})
	if at, ok := e.NextEventTime(); !ok || at != 3 {
		t.Fatalf("NextEventTime = %v, %v, want 3, true", at, ok)
	}
	if e.Now() != 0 || e.QueueLen() != 2 {
		t.Fatalf("peek mutated the engine: now=%v queue=%d", e.Now(), e.QueueLen())
	}
}

// TestRunHorizon checks the bounded-lag window primitive: events strictly
// before the horizon fire, an event exactly at the horizon stays queued
// for the next window, and the clock lands on the horizon either way.
func TestRunHorizon(t *testing.T) {
	e := New(1)
	var fired []Time
	for _, at := range []Time{2, 5, 15} {
		at := at
		e.Schedule(at, func() { fired = append(fired, at) })
	}
	e.Schedule(10, func() { fired = append(fired, 10) })
	e.RunHorizon(10)
	if len(fired) != 2 || fired[0] != 2 || fired[1] != 5 {
		t.Fatalf("fired %v, want [2 5] (strictly before horizon)", fired)
	}
	if e.Now() != 10 {
		t.Fatalf("clock = %v after RunHorizon(10), want 10", e.Now())
	}
	// The event exactly at the previous horizon fires in the next window.
	e.RunHorizon(20)
	if len(fired) != 4 || fired[2] != 10 || fired[3] != 15 {
		t.Fatalf("fired %v, want [2 5 10 15]", fired)
	}
	// An empty window still advances the clock.
	e.RunHorizon(30)
	if e.Now() != 30 || e.QueueLen() != 0 {
		t.Fatalf("empty window: now=%v queue=%d, want 30, 0", e.Now(), e.QueueLen())
	}
}

// TestStopKeepsClockMonotone checks that a Stop inside RunUntil or
// RunHorizon leaves the clock at the stopping event. Events before the
// bound are still queued, and the clock must not run backwards when a
// later run fires them.
func TestStopKeepsClockMonotone(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(e *Engine)
	}{
		{"RunUntil", func(e *Engine) { e.RunUntil(10) }},
		{"RunHorizon", func(e *Engine) { e.RunHorizon(10) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New(1)
			e.After(1, e.Stop)
			firedAt := Time(-1)
			e.After(5, func() { firedAt = e.Now() })
			tc.run(e)
			if e.Now() != 1 {
				t.Fatalf("clock = %v after Stop at 1, want 1", e.Now())
			}
			e.Run()
			if firedAt != 5 || e.Now() != 5 {
				t.Fatalf("event at 5 fired at %v, clock %v; want 5, 5", firedAt, e.Now())
			}
		})
	}
}

// Operations FuzzEngine decodes from its input, two bytes each: an
// opcode and an argument.
const (
	fzAt byte = iota
	fzAfter
	fzSchedule
	fzScheduleAfter
	fzReserveSeq
	fzScheduleSeq
	fzCancel
	fzStep
	fzRunUntil
	fzRunHorizon
	fzRun
	fzStop
	fzReset
	fzOps
)

// FuzzEngine is a differential test of the engine against a reference
// model that keeps every queued callback in one slice sorted by
// (at, seq). Each engine callback pops the model's head and checks it is
// the callback that fired, so any divergence in pop order across the
// lite and timer heaps fails at the first wrong event. After every
// operation the clock, QueueLen, NextEventTime, Stopped and EventsFired
// must match the model, and the clock must never decrease between
// Resets.
func FuzzEngine(f *testing.F) {
	f.Add([]byte{fzAfter, 0x13, fzAfter, 7, fzRunUntil, 10, fzRun, 0})
	f.Add([]byte{fzReserveSeq, 0, fzSchedule, 3, fzAt, 3, fzScheduleSeq, 3, fzCancel, 0, fzRun, 0})
	f.Add([]byte{fzAt, 0x25, fzAfter, 0x43, fzReset, 9, fzCancel, 1, fzAfter, 4, fzStep, 0, fzRunHorizon, 6})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		m := &engineModel{t: t, e: New(1)}
		for i := 0; i+1 < len(ops); i += 2 {
			m.apply(ops[i]%fzOps, ops[i+1])
			m.check()
		}
	})
}

type modelSlot struct {
	at  Time
	seq uint64
	id  int
}

type modelHandle struct {
	tm Timer
	id int
}

// engineModel mirrors an Engine: pending holds the queued callbacks in
// fire order, reserved the sequence numbers claimed by ReserveSeq and
// not yet scheduled, handles every Timer ever returned, live or stale.
type engineModel struct {
	t        *testing.T
	e        *Engine
	now      Time
	seq      uint64
	fires    uint64
	stopped  bool
	pending  []modelSlot
	reserved []uint64
	handles  []modelHandle
	nextID   int
	lastNow  Time // clock seen at the last check, for monotonicity
}

// add queues a slot in the model and returns its id.
func (m *engineModel) add(at Time, seq uint64) int {
	id := m.nextID
	m.nextID++
	i := sort.Search(len(m.pending), func(i int) bool {
		p := m.pending[i]
		return p.at > at || (p.at == at && p.seq > seq)
	})
	m.pending = slices.Insert(m.pending, i, modelSlot{at: at, seq: seq, id: id})
	return id
}

// schedule queues a callback through the engine call op names, and
// mirrors it in the model. The low four bits of arg give the delay,
// offset by -2 so After and ScheduleAfter see negative delays; the high
// bits are the callback's flags (see callback).
func (m *engineModel) schedule(op, arg byte) {
	d := Time(arg&15) - 2
	at := m.now + max(d, 0)
	flags := arg >> 4
	seq := m.seq
	m.seq++
	id := m.add(at, seq)
	fn := m.callback(id, flags)
	switch op {
	case fzAt:
		m.handles = append(m.handles, modelHandle{m.e.At(at, fn), id})
	case fzAfter:
		m.handles = append(m.handles, modelHandle{m.e.After(d, fn), id})
	case fzSchedule:
		m.e.Schedule(at, fn)
	case fzScheduleAfter:
		m.e.ScheduleAfter(d, fn)
	}
}

// callback returns the engine callback for slot id. It checks that the
// slot is the model's head and fired at its instant. Flag bit 0 makes it
// call Stop; bits 1-2 make it schedule a flagless child: 1 a lite one,
// 2 a tracked one.
func (m *engineModel) callback(id int, flags byte) func() {
	return func() {
		if len(m.pending) == 0 {
			m.t.Fatalf("callback %d fired, model queue empty", id)
		}
		want := m.pending[0]
		if want.id != id || m.e.Now() != want.at {
			m.t.Fatalf("callback %d fired at %v, want %d at %v", id, m.e.Now(), want.id, want.at)
		}
		if want.at < m.now {
			m.t.Fatalf("clock went back from %v to %v", m.now, want.at)
		}
		m.pending = m.pending[1:]
		m.now = want.at
		m.fires++
		if flags&1 != 0 {
			m.e.Stop()
			m.stopped = true
		}
		child := byte(2 + id%4)
		switch flags >> 1 & 3 {
		case 1:
			m.schedule(fzScheduleAfter, child)
		case 2:
			m.schedule(fzAfter, child)
		}
	}
}

func (m *engineModel) apply(op, arg byte) {
	switch op {
	case fzAt, fzAfter, fzSchedule, fzScheduleAfter:
		m.schedule(op, arg)
	case fzReserveSeq:
		if s := m.e.ReserveSeq(); s != m.seq {
			m.t.Fatalf("ReserveSeq = %d, want %d", s, m.seq)
		}
		m.reserved = append(m.reserved, m.seq)
		m.seq++
	case fzScheduleSeq:
		if len(m.reserved) == 0 {
			return
		}
		i := int(arg>>4) % len(m.reserved)
		seq := m.reserved[i]
		m.reserved = slices.Delete(m.reserved, i, i+1)
		at := m.now + Time(arg&15)
		m.e.ScheduleSeq(at, seq, m.callback(m.add(at, seq), 0))
	case fzCancel:
		if len(m.handles) == 0 {
			return
		}
		h := m.handles[int(arg)%len(m.handles)]
		i := slices.IndexFunc(m.pending, func(s modelSlot) bool { return s.id == h.id })
		live := i >= 0
		if h.tm.Pending() != live {
			m.t.Fatalf("timer %d Pending = %v, want %v", h.id, !live, live)
		}
		if h.tm.Cancel() != live {
			m.t.Fatalf("timer %d Cancel = %v, want %v", h.id, !live, live)
		}
		if live {
			m.pending = slices.Delete(m.pending, i, i+1)
		}
	case fzStep:
		want := len(m.pending) > 0
		before := m.fires
		if got := m.e.Step(); got != want || (want && m.fires != before+1) {
			m.t.Fatalf("Step = %v after %d fires, want %v after one", got, m.fires-before, want)
		}
	case fzRunUntil, fzRunHorizon:
		bound := m.now + Time(arg%32)
		last := bound // latest instant the run may execute
		m.stopped = false
		if op == fzRunUntil {
			m.e.RunUntil(bound)
		} else {
			m.e.RunHorizon(bound)
			last--
		}
		if !m.stopped {
			if len(m.pending) > 0 && m.pending[0].at <= last {
				m.t.Fatalf("run to %v left an event at %v", bound, m.pending[0].at)
			}
			m.now = max(m.now, bound)
		}
	case fzRun:
		m.stopped = false
		m.e.Run()
		if !m.stopped && len(m.pending) > 0 {
			m.t.Fatalf("Run returned with %d events queued", len(m.pending))
		}
	case fzStop:
		m.e.Stop()
		m.stopped = true
	case fzReset:
		m.e.Reset(int64(arg))
		m.now, m.seq, m.fires, m.stopped, m.lastNow = 0, 0, 0, false, 0
		m.pending, m.reserved = nil, nil
	}
}

// check compares the engine's observable state with the model.
func (m *engineModel) check() {
	e := m.e
	if e.Now() != m.now {
		m.t.Fatalf("clock = %v, want %v", e.Now(), m.now)
	}
	if e.Now() < m.lastNow {
		m.t.Fatalf("clock went back from %v to %v", m.lastNow, e.Now())
	}
	m.lastNow = e.Now()
	if e.QueueLen() != len(m.pending) {
		m.t.Fatalf("QueueLen = %d, want %d", e.QueueLen(), len(m.pending))
	}
	at, ok := e.NextEventTime()
	if ok != (len(m.pending) > 0) || (ok && at != m.pending[0].at) {
		m.t.Fatalf("NextEventTime = %v, %v; model queue %v", at, ok, m.pending)
	}
	if e.Stopped() != m.stopped {
		m.t.Fatalf("Stopped = %v, want %v", e.Stopped(), m.stopped)
	}
	if e.EventsFired() != m.fires {
		m.t.Fatalf("EventsFired = %d, want %d", e.EventsFired(), m.fires)
	}
}
