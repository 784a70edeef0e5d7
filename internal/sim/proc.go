package sim

import "fmt"

// Proc is a simulated process: a goroutine whose execution is interleaved
// with the event loop so that at most one thing (the loop or exactly one
// process) runs at a time. This gives blocking-style code — sleeps, waits
// — with fully deterministic scheduling.
type Proc struct {
	eng  *Engine
	name string
	// tok is the control-transfer token. Because exactly one side (the
	// event loop or the process) runs at any time, a single unbuffered
	// channel serves both directions: the loop sends to resume the
	// process, the process sends to signal it parked or finished.
	tok  chan struct{}
	done bool
	// wakeFn is the cached unblock-and-resume callback, so sleeps and
	// broadcasts schedule it without allocating a closure per wake.
	wakeFn func()
}

// Name returns the name given to Go.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.Now() }

// Go starts fn as a simulated process named name. The process begins
// running at the current virtual time (scheduled as an event). fn runs in
// its own goroutine but only while the event loop is handing it control,
// so no synchronization with other simulation state is needed.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{
		eng:  e,
		name: name,
		tok:  make(chan struct{}),
	}
	p.wakeFn = func() {
		p.eng.blocked--
		p.run()
	}
	e.procs++
	go p.main(fn)
	// The start event pairs with the increment so blocked is unchanged
	// once the process actually begins running.
	e.blocked++
	e.after(0, p.wakeFn)
	return p
}

// main is the process goroutine's body.
func (p *Proc) main(fn func(p *Proc)) {
	<-p.tok // wait for the start event
	fn(p)
	p.done = true
	p.eng.procs--
	p.tok <- struct{}{}
}

// run hands control to the process goroutine and blocks the event loop
// until the process parks (sleeps/waits) or finishes.
func (p *Proc) run() {
	if p.done {
		return
	}
	p.tok <- struct{}{}
	<-p.tok
}

// park returns control to the event loop and blocks until the loop
// resumes this process.
func (p *Proc) park() {
	p.tok <- struct{}{}
	<-p.tok
}

// Sleep suspends the process for d of virtual time.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	p.eng.blocked++
	p.eng.after(d, p.wakeFn)
	p.park()
}

// Yield lets every other event scheduled for the current instant run
// before the process continues.
func (p *Proc) Yield() { p.Sleep(0) }

// Cond is a broadcast condition for processes. The zero value is not
// usable; create with NewCond.
type Cond struct {
	eng     *Engine
	waiters []*Proc
}

// NewCond creates a condition bound to engine e.
func NewCond(e *Engine) *Cond { return &Cond{eng: e} }

// Broadcast wakes every process currently waiting on the condition. The
// woken processes run (and re-check their predicates) as events at the
// current instant, in the order they began waiting.
func (c *Cond) Broadcast() {
	ws := c.waiters
	c.waiters = c.waiters[:0]
	for _, p := range ws {
		c.eng.after(0, p.wakeFn)
	}
}

// Wait parks the process until pred() is true, re-checking after every
// Broadcast. pred is evaluated with the event loop paused, so it may read
// any simulation state.
func (p *Proc) Wait(c *Cond, pred func() bool) {
	for !pred() {
		c.waiters = append(c.waiters, p)
		p.eng.blocked++
		p.park()
	}
}

// WaitTimeout is like Wait but gives up after d, reporting whether the
// predicate became true.
func (p *Proc) WaitTimeout(c *Cond, d Time, pred func() bool) bool {
	deadline := p.eng.Now() + d
	for !pred() {
		if p.eng.Now() >= deadline {
			return false
		}
		woke := false
		c.waiters = append(c.waiters, p)
		p.eng.blocked++
		t := p.eng.At(deadline, func() {
			// Remove ourselves from the waiter list and wake up.
			for i, w := range c.waiters {
				if w == p {
					c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
					break
				}
			}
			p.eng.blocked--
			woke = true
			p.run()
		})
		p.park()
		if !woke {
			t.Cancel()
		}
	}
	return true
}

// Deadlocked reports whether live processes exist but everything is
// parked with no scheduled events — i.e. the simulation cannot progress.
func (e *Engine) Deadlocked() bool {
	return e.procs > 0 && e.QueueLen() == 0
}

// MustRun runs the simulation and panics if it ends with live processes
// still parked (a deadlock in the modelled system).
func (e *Engine) MustRun() {
	e.Run()
	if e.procs > 0 {
		panic(fmt.Sprintf("sim: deadlock, %d process(es) parked forever at %v", e.procs, e.now))
	}
}
