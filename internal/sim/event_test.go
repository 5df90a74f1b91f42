package sim

import (
	"reflect"
	"testing"
	"unsafe"

	"heteropim/internal/hw"
)

// recHandler records dispatched events in order.
type recHandler struct {
	got []Ev
	eng *Engine
}

func (h *recHandler) HandleEvent(ev Ev) { h.got = append(h.got, ev) }

func TestTypedEventsDispatchInOrder(t *testing.T) {
	e := New()
	h := &recHandler{}
	e.SetHandler(h)
	if err := e.AtEv(2, Ev{Kind: 3, Idx: 30}); err != nil {
		t.Fatal(err)
	}
	if err := e.AtEv(1, Ev{Kind: 2, Idx: 10, Flag: true}); err != nil {
		t.Fatal(err)
	}
	if err := e.AtEv(1, Ev{Kind: 2, Idx: 20}); err != nil { // same time: insertion order
		t.Fatal(err)
	}
	var funcRan bool
	if err := e.After(1.5, func() { funcRan = true }); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !funcRan {
		t.Fatal("interleaved closure event did not run")
	}
	want := []Ev{{Kind: 2, Idx: 10, Flag: true}, {Kind: 2, Idx: 20}, {Kind: 3, Idx: 30}}
	if !reflect.DeepEqual(h.got, want) {
		t.Fatalf("dispatched %v, want %v", h.got, want)
	}
}

func TestTypedEventWithoutHandlerErrors(t *testing.T) {
	e := New()
	if err := e.AtEv(1, Ev{Kind: 1}); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err == nil {
		t.Fatal("typed event with no handler must error, not panic or vanish")
	}
}

func TestAtEvValidatesTime(t *testing.T) {
	e := New()
	if err := e.AtEv(-1, Ev{Kind: 1}); err == nil {
		t.Error("past time accepted")
	}
	if err := e.AfterEv(-0.5, Ev{Kind: 1}); err == nil {
		t.Error("negative delay accepted")
	}
}

func TestResetDetachesHandler(t *testing.T) {
	e := New()
	e.SetHandler(&recHandler{})
	e.Reset()
	if err := e.AtEv(1, Ev{Kind: 1}); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err == nil {
		t.Fatal("Reset must detach the handler")
	}
}

// chainHandler reschedules n follow-up events, emulating a steady-state
// executor that schedules from within event dispatch and keeps the
// event's operands (here the countdown) in its own state.
type chainHandler struct {
	eng  *Engine
	left int
	idx  int32 // index operand, checks Idx round-trips
}

func (h *chainHandler) HandleEvent(ev Ev) {
	if ev.Idx != h.idx {
		panic("event index operand lost")
	}
	if h.left == 0 {
		return
	}
	h.left--
	if err := h.eng.AfterEv(1e-3, Ev{Kind: 1, Idx: h.idx}); err != nil {
		panic(err)
	}
}

// TestTypedEventSchedulingAllocsFree pins the tentpole property at the
// engine level: once the heap has grown, scheduling and dispatching
// typed events performs ZERO heap allocations — no closure, no boxing
// of the event.
func TestTypedEventSchedulingAllocsFree(t *testing.T) {
	e := New()
	const tk = 41
	run := func() {
		h := e.handler.(*chainHandler)
		h.left = 500
		if err := e.AtEv(e.Now()+1e-3, Ev{Kind: 1, Idx: tk}); err != nil {
			t.Fatal(err)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	e.SetHandler(&chainHandler{eng: e, idx: tk})
	run() // grow the heap
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("typed event scheduling allocates %.2f objects per 500-event run, want 0", allocs)
	}
}

// The legacy closure path, by contrast, allocates at least the closure
// per event — the "before" side of the pimbench -eventsjson comparison.
func TestClosureEventsStillWork(t *testing.T) {
	e := New()
	var n int
	var schedule func()
	schedule = func() {
		n++
		if n < 100 {
			if err := e.After(1e-3, schedule); err != nil {
				t.Error(err)
			}
		}
	}
	if err := e.After(0, schedule); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("ran %d closure events, want 100", n)
	}
	if e.Now() != hw.Seconds(99e-3) && e.Now() <= 0 {
		t.Fatalf("clock did not advance: %v", e.Now())
	}
	// A chain keeps one closure pending at a time, so its slot is reused
	// instead of growing the slab per event.
	if len(e.funcs) != 1 {
		t.Fatalf("closure slab holds %d slots after a 100-event chain, want 1", len(e.funcs))
	}
}

// TestClosureSlotsReleased checks the closure slab's lifecycle: fan-out
// closures each get a slot, a run frees every slot (dropping the
// closures), and Reset empties the slab while keeping its capacity.
func TestClosureSlotsReleased(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		if err := e.At(float64(5-i), func() { order = append(order, i) }); err != nil {
			t.Fatal(err)
		}
	}
	if len(e.funcs) != 5 {
		t.Fatalf("%d closure slots for 5 pending closures", len(e.funcs))
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []int{4, 3, 2, 1, 0}; !reflect.DeepEqual(order, want) {
		t.Fatalf("closures ran in order %v, want %v", order, want)
	}
	for i, fn := range e.funcs {
		if fn != nil {
			t.Fatalf("slot %d still holds its closure after it ran", i)
		}
	}
	if len(e.freeFuncs) != 5 {
		t.Fatalf("%d free slots after the run, want 5", len(e.freeFuncs))
	}
	if err := e.At(e.Now()+1, func() {}); err != nil {
		t.Fatal(err)
	}
	e.Reset()
	if len(e.funcs) != 0 || len(e.freeFuncs) != 0 || cap(e.funcs) < 5 {
		t.Fatalf("Reset left %d slots, %d free (cap %d)", len(e.funcs), len(e.freeFuncs), cap(e.funcs))
	}
}

// TestEventFitsCacheLine pins the size of a heap entry: an event is at
// most 8 bytes, so the (time, seq, event) key the heap orders stays at
// 24 bytes — three words per sift, and over two keys per cache line.
func TestEventFitsCacheLine(t *testing.T) {
	if n := unsafe.Sizeof(Ev{}); n > 8 {
		t.Fatalf("event is %d bytes, want <= 8", n)
	}
	if n := unsafe.Sizeof(key{}); n > 24 {
		t.Fatalf("heap entry is %d bytes, want <= 24", n)
	}
}
