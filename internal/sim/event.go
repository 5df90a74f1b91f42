package sim

import (
	"fmt"

	"heteropim/internal/hw"
)

// Typed event payloads. The engine's original API schedules a `func()`
// per event, and in a steady-state run that closure would be a heap
// allocation per event. A typed payload is a small value struct written
// into the engine's payload slab: scheduling one touches no allocator
// once the slab has grown.
//
// The payload is deliberately generic — a kind tag plus a handful of
// scalar operands and one index operand — so internal/sim stays free of
// executor types. The executor defines its own EventKind values and
// implements Handler; the engine routes every non-closure event there.
// The payload holds no pointers, so the slab needs no GC write
// barriers. The heap itself orders 24-byte (time, seq, slot) keys
// (engine.go) and never moves a payload.

// EventKind discriminates typed events. Kind zero is reserved for the
// legacy closure path (KindFunc).
type EventKind uint8

// KindFunc marks a legacy closure event: its func() sits in the
// engine's closure slab under the event's payload slot, and the engine
// invokes it directly. At/After produce these; hot paths use AtEv.
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
	// subject (e.g. a task-slab index). Being an index rather than a
	// pointer, it stays valid across a Checkpoint/Restore into another
	// engine whose owner lays its state out the same way.
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
	e.schedule(t, ev)
	return nil
}

// AfterEv schedules a typed event delay seconds from now.
func (e *Engine) AfterEv(delay hw.Seconds, ev Ev) error {
	if delay < 0 {
		return fmt.Errorf("sim: negative delay %.9g", delay)
	}
	return e.AtEv(e.now+delay, ev)
}
