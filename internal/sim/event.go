package sim

import (
	"fmt"

	"heteropim/internal/hw"
)

// Typed event payloads. The engine's original API schedules a `func()`
// per event; in a steady-state run that closure is the last per-event
// heap allocation left (PR 3 removed the heap boxing, PR 5 removes the
// closures). A typed payload is a small value struct carried inside the
// event heap's own slab: scheduling one touches no allocator at all.
//
// The payload is deliberately generic — a kind tag plus a handful of
// scalar operands and one index operand — so internal/sim stays free of
// executor types. The executor defines its own EventKind values and
// implements Handler; the engine routes every non-closure event there.
// The payload holds no pointers, so the heap's sifts move plain memory:
// no GC write barriers, and an event fits one 64-byte cache line.

// EventKind discriminates typed events. Kind zero is reserved for the
// legacy closure path (Idx names the engine-side closure slot).
type EventKind uint8

// KindFunc marks a legacy closure event: Idx is the slot of its func()
// in the engine's closure slab, invoked directly by the engine. At/After
// produce these; hot paths use AtEv.
const KindFunc EventKind = 0

// Ev is one typed event payload. Field meaning is owner-defined per
// Kind; the struct is sized so the common cases (a task index, a device
// index, a few work scalars, a recorded start time) fit without any
// side allocation.
type Ev struct {
	Kind EventKind
	// A is a small operand (e.g. a device index).
	A uint8
	// Flag is a boolean operand (e.g. before/after residual).
	Flag bool
	// N is an integer operand (e.g. slots or granted units).
	N int32
	// Idx is the index operand: the owner's handle on the event's
	// subject (e.g. a task-slab index), or the closure slot of KindFunc.
	// Being an index rather than a pointer, it stays valid across a
	// Checkpoint/Restore into another engine whose owner lays its state
	// out the same way.
	Idx int32
	// F1..F3 are scalar operands (e.g. chunk flops/bytes, a sync cost).
	F1, F2, F3 float64
	// Start is a recorded timestamp operand (e.g. a span's start).
	Start hw.Seconds
}

// Handler dispatches typed events. The engine calls it synchronously
// from Run, in heap order, with the clock already advanced to the
// event's time.
type Handler interface {
	HandleEvent(ev Ev)
}

// SetHandler attaches the typed-event dispatcher. Reset/Release detach
// it, so a pooled engine never leaks a handler into its next run.
func (e *Engine) SetHandler(h Handler) { e.handler = h }

// AtEv schedules a typed event at an absolute time. Like At it rejects
// non-finite or past times; unlike At it performs no allocation beyond
// (amortized) heap-slab growth.
func (e *Engine) AtEv(t hw.Seconds, ev Ev) error {
	if err := e.checkTime(t); err != nil {
		return err
	}
	e.seq++
	e.events.push(event{at: t, seq: e.seq, ev: ev})
	return nil
}

// AfterEv schedules a typed event delay seconds from now.
func (e *Engine) AfterEv(delay hw.Seconds, ev Ev) error {
	if delay < 0 {
		return fmt.Errorf("sim: negative delay %.9g", delay)
	}
	return e.AtEv(e.now+delay, ev)
}
