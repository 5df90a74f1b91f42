package sim

import (
	"fmt"

	"heteropim/internal/hw"
)

// Typed events. The engine's original API schedules a `func()` per
// event, and in a steady-state run that closure would be a heap
// allocation per event. A typed event is an 8-byte value — a kind tag,
// one boolean and one index operand — that rides inside the heap key
// itself (engine.go), so scheduling one is a sequence bump plus a heap
// push and touches no allocator once the heap has grown.
//
// The event is deliberately generic so internal/sim stays free of
// executor types. The executor defines its own EventKind values and
// implements Handler; the engine routes every non-closure event there.
// Idx names the event's subject in owner state (e.g. a task-slab
// index), and any further operands live in that state: an owner with
// at most one event pending per subject keeps them there instead of in
// the event, which is what keeps the heap key at 24 bytes.

// EventKind discriminates typed events. Kind zero is reserved for the
// legacy closure path (KindFunc).
type EventKind uint8

// KindFunc marks a legacy closure event: its func() sits in the
// engine's closure slab under the event's Idx, and the engine invokes
// it directly. At/After produce these; hot paths use AtEv.
const KindFunc EventKind = 0

// Ev is one typed event. Field meaning is owner-defined per Kind.
type Ev struct {
	Kind EventKind
	// Flag is a boolean operand (e.g. before/after residual).
	Flag bool
	// Idx is the index operand: the owner's handle on the event's
	// subject (e.g. a task-slab index). Being an index rather than a
	// pointer, it stays valid across a Checkpoint/Restore into another
	// engine whose owner lays its state out the same way.
	Idx int32
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
// (amortized) heap growth.
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
