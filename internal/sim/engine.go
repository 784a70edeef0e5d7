package sim

import (
	"fmt"
	"math/rand"
)

// event is a scheduled callback. Events at the same instant fire in the
// order they were scheduled (seq breaks ties), which keeps runs
// deterministic. Events are recycled through the engine's free list when
// they fire or are cancelled; gen increments on every recycle so stale
// Timer handles become inert instead of acting on the event's next life.
type event struct {
	at    Time
	seq   uint64
	fn    func()
	gen   uint64
	index int // position in the heap, -1 when popped
}

// heapItem is one heap slot. The ordering key (at, seq) is stored by
// value next to the payload, so sift comparisons stay inside the heap's
// backing array instead of dereferencing each event — the heaps are the
// simulator's hottest structure (every send, timer and wakeup passes
// through one), and the switched congestion path multiplies traffic
// through them by its per-hop events.
//
// A slot carries either a tracked event (ev != nil: cancellable, with a
// Timer handle and heap-index maintenance) or a lite callback (ev == nil,
// fn set: fire-and-forget). The two kinds live in separate heaps (see
// Engine): lite slots skip the event free list entirely and sift moves
// never store a heap index for them, so the per-hop tx-done and
// propagation callbacks of the switched congestion path cost only the
// slice shuffle, and they sift past other packet callbacks only — never
// past the hundreds of armed retransmit and congestion-control timers.
type heapItem struct {
	at  Time
	seq uint64
	fn  func() // lite payload; nil when ev is set
	ev  *event
}

// eventHeap is a hand-rolled binary min-heap over (at, seq). It replaces
// container/heap: the interface-dispatched Less/Swap calls dominated the
// congested-datapath profile, and pop order is a total order on
// (at, seq), so a specialized heap is observably identical — runs stay
// byte-for-byte deterministic. (A 4-ary variant was measured ~10% slower
// here: the min-of-four child scan mispredicts more than the halved
// depth saves.) The engine keeps two of them, one per slot kind.
type eventHeap []heapItem

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

// siftUp restores the heap property from slot i toward the root.
func (h eventHeap) siftUp(i int) {
	item := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		p := h[parent]
		if p.at < item.at || (p.at == item.at && p.seq < item.seq) {
			break
		}
		h[i] = p
		if p.ev != nil {
			p.ev.index = i
		}
		i = parent
	}
	h[i] = item
	if item.ev != nil {
		item.ev.index = i
	}
}

// siftDown restores the heap property from slot i toward the leaves.
func (h eventHeap) siftDown(i int) {
	n := len(h)
	item := h[i]
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h.less(r, child) {
			child = r
		}
		c := h[child]
		if item.at < c.at || (item.at == c.at && item.seq < c.seq) {
			break
		}
		h[i] = c
		if c.ev != nil {
			c.ev.index = i
		}
		i = child
	}
	h[i] = item
	if item.ev != nil {
		item.ev.index = i
	}
}

// push adds ev to the timer heap.
func (e *Engine) push(ev *event) {
	e.timers = append(e.timers, heapItem{at: ev.at, seq: ev.seq, ev: ev})
	e.timers.siftUp(len(e.timers) - 1)
}

// next returns the heap whose top is the earliest queued slot by
// (at, seq), or nil when both heaps are empty. Sequence numbers come
// from one counter and are never shared between live slots, so the
// comparison never ties and the merged pop order is the same total
// order one heap holding every slot would give.
func (e *Engine) next() *eventHeap {
	if len(e.timers) == 0 {
		if len(e.lite) == 0 {
			return nil
		}
		return &e.lite
	}
	if len(e.lite) == 0 {
		return &e.timers
	}
	t, l := &e.timers[0], &e.lite[0]
	if t.at < l.at || (t.at == l.at && t.seq < l.seq) {
		return &e.timers
	}
	return &e.lite
}

// popMin removes and returns the top slot of hp, one of the engine's
// two heaps. The heap must be non-empty.
func (e *Engine) popMin(hp *eventHeap) heapItem {
	h := *hp
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = heapItem{}
	*hp = h[:n]
	if n > 0 {
		h[0] = last
		h[:n].siftDown(0)
	}
	if top.ev != nil {
		top.ev.index = -1
	}
	return top
}

// remove deletes the event at timer-heap slot i (timer cancellation).
func (e *Engine) remove(i int) {
	h := e.timers
	n := len(h) - 1
	ev := h[i].ev
	last := h[n]
	h[n] = heapItem{}
	e.timers = h[:n]
	if i < n {
		h[i] = last
		if i > 0 && e.timers.less(i, (i-1)/2) {
			e.timers.siftUp(i)
		} else {
			e.timers.siftDown(i)
		}
	}
	ev.index = -1
}

// Timer is a handle to a scheduled event; it allows cancellation. The
// handle captures the event's generation: once the event fires (and its
// storage is recycled for a later schedule), the handle is inert. Timer
// is a small value — the zero Timer is valid and permanently inert, and
// copies of a handle all refer to the same scheduled callback.
type Timer struct {
	eng *Engine
	ev  *event
	gen uint64
}

// Cancel prevents the timer's callback from firing. The event is removed
// from the timer heap immediately and its storage recycled — cancelled
// timers leave no dead entries behind (the RC requester cancels a
// retransmit timer on nearly every ACK, so lazy deletion would carry a
// tail of dead heap entries through timeout-heavy runs). Cancelling an already-fired
// or already-cancelled timer is a no-op. Cancel reports whether the
// callback was still pending.
func (t Timer) Cancel() bool {
	if t.ev == nil || t.ev.gen != t.gen {
		return false
	}
	t.eng.remove(t.ev.index)
	t.eng.recycle(t.ev)
	return true
}

// Pending reports whether the timer's callback has neither fired nor been
// cancelled.
func (t Timer) Pending() bool {
	return t.ev != nil && t.ev.gen == t.gen
}

// Engine is the simulation core. It is not safe for concurrent use; the
// process layer (see proc.go) serializes all goroutines onto the engine's
// event loop. Distinct engines are fully independent, so separate trials
// may run on separate engines concurrently (see internal/parallel).
//
// Queued work lives in two heaps. lite holds the fire-and-forget slots
// (Schedule, ScheduleAfter, ScheduleSeq, process wakeups); timers holds
// the tracked, cancellable events (At, After). A congested run keeps
// hundreds of armed timers queued while packet callbacks come and go, so
// keeping them apart lets every packet event sift through a heap of a
// few slots instead of one as deep as the timer population. Both heaps
// draw seq from one counter and Step pops whichever top is smaller by
// (at, seq), so the pop order is exactly that of a single heap.
type Engine struct {
	now     Time
	lite    eventHeap
	timers  eventHeap
	free    []*event // recycled event storage
	seq     uint64
	rng     *rand.Rand
	seed    int64
	fired   uint64
	resets  uint64
	stopped bool
	procs   int // live (started, not finished) processes
	blocked int // processes currently parked on a Cond or sleep
	// aux holds storage attached to the engine that, like the event free
	// list, survives Reset — e.g. the fabric's packet pool, so trial
	// loops that rebuild the fabric per run keep recycling one pool.
	aux map[string]any
}

// New creates an engine whose random stream is seeded with seed. The same
// seed always produces the same simulation.
func New(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed)), seed: seed}
}

// Reset returns the engine to its just-constructed state with a new seed,
// keeping allocated storage (both heaps' backing arrays and the event
// free list) so repeated trials reuse one engine instead of allocating a
// fresh one per run. A reset engine behaves byte-identically to New(seed).
// Reset panics if live processes remain from an unfinished run.
func (e *Engine) Reset(seed int64) {
	if e.procs > 0 {
		panic(fmt.Sprintf("sim: Reset with %d live process(es)", e.procs))
	}
	for i := range e.timers {
		ev := e.timers[i].ev
		ev.index = -1
		e.recycle(ev)
	}
	clear(e.timers)
	e.timers = e.timers[:0]
	clear(e.lite)
	e.lite = e.lite[:0]
	e.now = 0
	e.seq = 0
	e.fired = 0
	e.stopped = false
	e.blocked = 0
	e.resets++
	e.rng.Seed(seed)
	e.seed = seed
}

// Generation counts how many times the engine has been Reset. Aux-held
// arenas use it to reclaim per-run objects wholesale: storage grabbed
// under an older generation is free again, because Reset asserts no live
// processes (and therefore no live run) remain.
func (e *Engine) Generation() uint64 { return e.resets }

// Aux returns the value attached under key by SetAux, or nil.
func (e *Engine) Aux(key string) any { return e.aux[key] }

// SetAux attaches a value to the engine under key. Aux values survive
// Reset — they are for free-list-style storage meant to be reused across
// runs on one engine. Holders must tolerate carry-over: anything read
// from Aux after a Reset still has its previous run's contents.
func (e *Engine) SetAux(key string, v any) {
	if e.aux == nil {
		e.aux = make(map[string]any)
	}
	e.aux[key] = v
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// EventsFired returns how many events have executed so far.
func (e *Engine) EventsFired() uint64 { return e.fired }

// Rand exposes the engine's deterministic random stream.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Seed returns the seed the engine was created (or last Reset) with.
// Consumers that need seed-derived determinism without consuming the
// random stream — e.g. ECMP flow hashing — key off this value, so a
// Reset engine reproduces New(seed) exactly.
func (e *Engine) Seed() int64 { return e.seed }

// schedule allocates (or recycles) an event for fn at absolute time t and
// pushes it on the timer heap. Scheduling in the past panics: it would
// silently reorder causality.
func (e *Engine) schedule(t Time, fn func()) *event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &event{}
	}
	ev.at = t
	ev.seq = e.seq
	ev.fn = fn
	e.seq++
	e.push(ev)
	return ev
}

// recycle returns a popped event's storage to the free list, bumping its
// generation so outstanding Timer handles to its previous life go inert.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	e.free = append(e.free, ev)
}

// At schedules fn to run at absolute virtual time t.
func (e *Engine) At(t Time, fn func()) Timer {
	ev := e.schedule(t, fn)
	return Timer{eng: e, ev: ev, gen: ev.gen}
}

// After schedules fn to run d after the current time. Negative delays are
// clamped to zero.
func (e *Engine) After(d Time, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// Schedule runs fn at absolute virtual time t with no Timer handle: the
// callback rides in a lite heap slot itself, bypassing the event free
// list and heap-index maintenance, and sifts only past other lite slots.
// It is the fast path for callers that never cancel — per-hop tx-done
// and propagation callbacks, fabric deliveries, process wakeups.
// Ordering is identical to At (one shared sequence counter breaks
// same-instant ties across both heaps), so mixing Schedule and At
// changes nothing observable.
func (e *Engine) Schedule(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.lite = append(e.lite, heapItem{at: t, seq: e.seq, fn: fn})
	e.seq++
	e.lite.siftUp(len(e.lite) - 1)
}

// ScheduleAfter is Schedule at d after the current time. Negative delays
// are clamped to zero.
func (e *Engine) ScheduleAfter(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	e.Schedule(e.now+d, fn)
}

// ReserveSeq claims the next sequence number without scheduling
// anything. Delay lines (FIFO wires that keep only their head flight in
// the heap) reserve each flight's tie-break at the instant the flight
// starts and pass it to ScheduleSeq when the flight reaches the head —
// so pop order is bit-identical to scheduling every flight eagerly.
func (e *Engine) ReserveSeq() uint64 {
	s := e.seq
	e.seq++
	return s
}

// ScheduleSeq is Schedule with a sequence number previously claimed by
// ReserveSeq. Same-instant ties resolve by reservation order, not by
// when the slot entered the heap.
func (e *Engine) ScheduleSeq(t Time, seq uint64, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.lite = append(e.lite, heapItem{at: t, seq: seq, fn: fn})
	e.lite.siftUp(len(e.lite) - 1)
}

// after is ScheduleAfter's internal alias, kept for the process layer's
// sleep/wakeup path.
func (e *Engine) after(d Time, fn func()) {
	e.ScheduleAfter(d, fn)
}

// PreallocEvents grows both heaps' backing arrays and the free list
// until the engine can hold at least n scheduled events — any mix of
// lite slots and tracked events — without touching the allocator. Only
// tracked events take storage from the free list, so it is filled to n
// less the events already queued on the timer heap. Like the heaps and
// free list themselves, the storage survives Reset, so callers with
// known fan-out (the switched congestion network schedules a tx-done
// event plus propagation flights per link) pay the cost once per engine,
// not per trial. Calling it on a warm engine is a no-op.
func (e *Engine) PreallocEvents(n int) {
	for _, h := range []*eventHeap{&e.lite, &e.timers} {
		if cap(*h) < n {
			grown := make(eventHeap, len(*h), n)
			copy(grown, *h)
			*h = grown
		}
	}
	if cap(e.free) < n {
		grown := make([]*event, len(e.free), n)
		copy(grown, e.free)
		e.free = grown
	}
	for len(e.free)+len(e.timers) < n {
		e.free = append(e.free, &event{})
	}
}

// EventCapacity returns how many events the engine can queue, in any
// mix of lite slots and tracked events, before a heap's backing array
// must grow (see PreallocEvents).
func (e *Engine) EventCapacity() int { return min(cap(e.lite), cap(e.timers)) }

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called since the engine last
// began running (Run, RunUntil and RunHorizon clear the flag on entry).
// The shard group polls it between epoch windows so a Stop issued
// inside one window ends the whole group run rather than only that
// window (internal/shard).
func (e *Engine) Stopped() bool { return e.stopped }

// Step executes the single next event, advancing the clock. It reports
// whether an event was executed.
func (e *Engine) Step() bool {
	h := e.next()
	if h == nil {
		return false
	}
	e.fire(h)
	return true
}

// fire pops the top slot of h and runs its callback at its instant.
func (e *Engine) fire(h *eventHeap) {
	top := e.popMin(h)
	e.now = top.at
	e.fired++
	fn := top.fn
	if top.ev != nil {
		fn = top.ev.fn
		e.recycle(top.ev)
	}
	fn()
}

// Run executes events until the queue is empty or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then sets the clock to
// t. If Stop ends the run first, the clock stays at the last executed
// event: events before t may still be queued, and a later run must not
// see the clock go backwards when it fires them.
func (e *Engine) RunUntil(t Time) {
	e.stopped = false
	for !e.stopped {
		h := e.next()
		if h == nil || (*h)[0].at > t {
			e.advance(t)
			return
		}
		e.fire(h)
	}
}

// advance moves the clock forward to t; it never moves it back.
func (e *Engine) advance(t Time) {
	if e.now < t {
		e.now = t
	}
}

// NextEventTime returns the timestamp of the earliest scheduled event
// without popping it, reporting ok=false on an empty queue. The shard
// layer's epoch coordinator reads every engine's next time to pick the
// global window start (internal/shard).
func (e *Engine) NextEventTime() (Time, bool) {
	h := e.next()
	if h == nil {
		return 0, false
	}
	return (*h)[0].at, true
}

// RunHorizon executes events with timestamps strictly before h, then
// advances the clock to h. It is the bounded-lag window primitive: a
// shard may safely execute [now, h) in parallel with its peers when no
// cross-shard flight can land before h, and the strict upper bound keeps
// an event scheduled exactly at h for the next window — where the epoch
// merge decides its order against freshly landed flights. As with
// RunUntil, a Stop leaves the clock at the last executed event.
func (e *Engine) RunHorizon(h Time) {
	e.stopped = false
	for !e.stopped {
		hp := e.next()
		if hp == nil || (*hp)[0].at >= h {
			e.advance(h)
			return
		}
		e.fire(hp)
	}
}

// QueueLen returns the number of scheduled events in both heaps.
// Cancelled events are removed eagerly, so the count reflects only live
// work.
func (e *Engine) QueueLen() int { return len(e.lite) + len(e.timers) }
