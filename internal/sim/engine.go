// Package sim is a small deterministic discrete-event simulation engine:
// an event heap ordered by (time, sequence), a clock, and run control.
// It is the substrate under the trace-driven executors in internal/core,
// playing the role of the paper's Python simulation framework
// (Section V-A).
package sim

import (
	"fmt"
	"math"
	"sync"

	"heteropim/internal/hw"
)

// key is one heap entry: the event's time, its insertion sequence and
// the event itself (event.go). Keys are 24 bytes and hold no pointers,
// so the heap's sifts move three words per level and an event is
// written once, by the push that schedules it.
type key struct {
	at  hw.Seconds
	seq uint64
	ev  Ev
}

// before is the heap order: time first, insertion sequence as the tie
// break, which is what makes same-time events run in schedule order.
func (k key) before(o key) bool {
	if k.at != o.at {
		return k.at < o.at
	}
	return k.seq < o.seq
}

// keyHeap is a typed 4-ary implicit min-heap of keys. A 4-ary layout
// halves the tree depth of a binary heap, trading slightly more sibling
// comparisons per level for fewer cache-missing levels. Children of node
// i live at 4i+1..4i+4; the parent of i is (i-1)/4.
type keyHeap []key

// push inserts k, sifting it up to its heap position.
func (h *keyHeap) push(k key) {
	a := append(*h, k)
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !k.before(a[p]) {
			break
		}
		a[i] = a[p]
		i = p
	}
	a[i] = k
	*h = a
}

// pop removes and returns the minimum key.
func (h *keyHeap) pop() key {
	a := *h
	top := a[0]
	n := len(a) - 1
	last := a[n]
	a = a[:n]
	*h = a
	if n > 0 {
		i := 0
		for {
			c := 4*i + 1
			if c >= n {
				break
			}
			// Find the smallest of up to four children.
			m := c
			end := c + 4
			if end > n {
				end = n
			}
			for j := c + 1; j < end; j++ {
				if a[j].before(a[m]) {
					m = j
				}
			}
			if !a[m].before(last) {
				break
			}
			a[i] = a[m]
			i = m
		}
		a[i] = last
	}
	return top
}

// Engine is the simulation core. The zero value is NOT usable; call New.
type Engine struct {
	now    hw.Seconds
	seq    uint64
	events keyHeap
	// processed counts executed events (for runaway detection).
	processed uint64
	// MaxEvents guards against schedule loops; 0 means the default.
	MaxEvents uint64
	// obs receives instrumentation events when attached (observe.go);
	// nil on the uninstrumented fast path.
	obs Collector
	// handler dispatches typed (non-KindFunc) events; see event.go.
	handler Handler
	// funcs holds the closures of pending KindFunc events, indexed by
	// their Ev.Idx; freeFuncs lists the slots whose closure already ran,
	// reused before funcs grows, so the slab stays as large as the most
	// closures ever pending at once.
	funcs     []func()
	freeFuncs []int32
}

// DefaultMaxEvents bounds a single Run; generous for every workload here.
const DefaultMaxEvents = 200_000_000

// New creates an engine at time zero.
func New() *Engine {
	return &Engine{}
}

// Now returns the current simulated time.
func (e *Engine) Now() hw.Seconds { return e.now }

// Processed returns how many events have executed.
func (e *Engine) Processed() uint64 { return e.processed }

// checkTime validates a scheduling time: finite and not in the past.
func (e *Engine) checkTime(t hw.Seconds) error {
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return fmt.Errorf("sim: scheduling at non-finite time %v", t)
	}
	if t < e.now {
		return fmt.Errorf("sim: scheduling at %.9g, before now %.9g", t, e.now)
	}
	return nil
}

// At schedules fn at an absolute time, which must not be in the past.
func (e *Engine) At(t hw.Seconds, fn func()) error {
	if err := e.checkTime(t); err != nil {
		return err
	}
	var slot int32
	if n := len(e.freeFuncs); n > 0 {
		slot = e.freeFuncs[n-1]
		e.freeFuncs = e.freeFuncs[:n-1]
		e.funcs[slot] = fn
	} else {
		slot = int32(len(e.funcs))
		e.funcs = append(e.funcs, fn)
	}
	e.schedule(t, Ev{Kind: KindFunc, Idx: slot})
	return nil
}

// schedule pushes ev's key. The caller has validated t.
func (e *Engine) schedule(t hw.Seconds, ev Ev) {
	e.seq++
	e.events.push(key{at: t, seq: e.seq, ev: ev})
}

// After schedules fn delay seconds from now.
func (e *Engine) After(delay hw.Seconds, fn func()) error {
	if delay < 0 {
		return fmt.Errorf("sim: negative delay %.9g", delay)
	}
	return e.At(e.now+delay, fn)
}

// drain is the execution loop behind Run and RunUntil: it executes
// events until the queue empties or the total processed count reaches
// stopAfter, returning an error if the event budget is exhausted (a
// scheduling loop).
func (e *Engine) drain(stopAfter uint64) error {
	max := e.MaxEvents
	if max == 0 {
		max = DefaultMaxEvents
	}
	for len(e.events) > 0 && e.processed < stopAfter {
		if e.processed >= max {
			return fmt.Errorf("sim: event budget (%d) exhausted at t=%.9g — scheduling loop?", max, e.now)
		}
		k := e.events.pop()
		e.now = k.at
		e.processed++
		if k.ev.Kind == KindFunc {
			// Drop the closure from the slab (for the GC) and free its
			// slot before it runs, so closures it schedules reuse it.
			fn := e.funcs[k.ev.Idx]
			e.funcs[k.ev.Idx] = nil
			e.freeFuncs = append(e.freeFuncs, k.ev.Idx)
			fn()
		} else if e.handler != nil {
			e.handler.HandleEvent(k.ev)
		} else {
			return fmt.Errorf("sim: typed event kind %d at t=%.9g with no handler attached", k.ev.Kind, e.now)
		}
	}
	return nil
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return len(e.events) }

// Reset returns the engine to its initial state (time zero, no events,
// default budget) while keeping the backing arrays of the event heap
// and the closure slab, so a recycled engine runs its next simulation
// without re-growing them. Closures still pending are dropped for the GC.
func (e *Engine) Reset() {
	e.now = 0
	e.seq = 0
	e.processed = 0
	e.MaxEvents = 0
	e.obs = nil
	e.handler = nil
	e.events = e.events[:0]
	clear(e.funcs)
	e.funcs = e.funcs[:0]
	e.freeFuncs = e.freeFuncs[:0]
}

// enginePool recycles engines (and their grown heap arrays) across
// simulation runs. One steady-state run schedules tens of thousands of
// events; reusing the backing array removes that re-growth from every
// cell of a parallel sweep.
var enginePool = sync.Pool{New: func() any { return New() }}

// Acquire returns a reset engine from the pool.
func Acquire() *Engine {
	return enginePool.Get().(*Engine)
}

// Release resets the engine and returns it to the pool. The caller must
// not use the engine afterwards.
func Release(e *Engine) {
	if e == nil {
		return
	}
	e.Reset()
	enginePool.Put(e)
}
