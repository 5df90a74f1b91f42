package sim

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// cpHandler records every dispatched typed event with its time. Each
// event's Idx names its operands in the handler's ops table, the way
// the executor's events name a task.
type cpHandler struct {
	eng  *Engine
	ops  []cpOp
	log  []cpEntry
	feed int
}

// cpOp is one event's operands: a value and the subject it acts on.
type cpOp struct{ n, subj int32 }

type cpEntry struct {
	kind    EventKind
	n, subj int32
	at      float64
}

// fork returns a handler for a restored engine, continuing h's state.
func (h *cpHandler) fork(e *Engine) *cpHandler {
	f := &cpHandler{eng: e, ops: h.ops, log: append([]cpEntry(nil), h.log...), feed: h.feed}
	// Cap ops so the fork's appends never write into h's backing array.
	f.ops = f.ops[:len(f.ops):len(f.ops)]
	e.SetHandler(f)
	return f
}

// at schedules an event of kind with operands op.
func (h *cpHandler) at(t float64, kind EventKind, op cpOp) error {
	h.ops = append(h.ops, op)
	return h.eng.AtEv(t, Ev{Kind: kind, Idx: int32(len(h.ops) - 1)})
}

func (h *cpHandler) HandleEvent(ev Ev) {
	op := h.ops[ev.Idx]
	h.log = append(h.log, cpEntry{kind: ev.Kind, n: op.n, subj: op.subj, at: h.eng.Now()})
	// A little feedback scheduling so the suffix depends on engine state
	// (sequence tie-breaks, relative delays), not just the initial queue.
	if ev.Kind == 1 && h.feed < 5 {
		h.feed++
		if err := h.at(h.eng.Now()+0.5, 2, cpOp{n: op.n + 100, subj: op.subj}); err != nil {
			panic(err)
		}
		if err := h.at(h.eng.Now()+0.5, 2, cpOp{n: op.n + 200, subj: op.subj}); err != nil {
			panic(err)
		}
	}
}

// seedEngine schedules a deterministic batch of typed events, including
// same-time ties.
func seedEngine(t *testing.T, e *Engine, h *cpHandler) {
	t.Helper()
	e.SetHandler(h)
	h.eng = e
	for i := 0; i < 8; i++ {
		at := float64(i%3) + 0.25
		if err := h.at(at, 1, cpOp{n: int32(i), subj: int32(10 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Ties at t=1.0 exercise sequence-order preservation.
	for i := 0; i < 4; i++ {
		if err := h.at(1.0, 3, cpOp{n: int32(i), subj: int32(10 + i)}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCheckpointRestoreBitIdentical(t *testing.T) {
	// Reference: run uninterrupted.
	ref := New()
	refH := &cpHandler{}
	seedEngine(t, ref, refH)
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}

	for stop := uint64(0); stop <= ref.Processed(); stop++ {
		src := New()
		srcH := &cpHandler{}
		seedEngine(t, src, srcH)
		if err := src.RunUntil(stop); err != nil {
			t.Fatal(err)
		}
		cp, err := src.Checkpoint()
		if err != nil {
			t.Fatalf("stop=%d: %v", stop, err)
		}
		if cp.Processed() != src.Processed() || cp.Now() != src.Now() || cp.Pending() != src.Pending() {
			t.Fatalf("stop=%d: checkpoint accessors disagree with engine", stop)
		}
		dst := New()
		dstH := srcH.fork(dst)
		if err := dst.Restore(cp); err != nil {
			t.Fatal(err)
		}
		if err := dst.Run(); err != nil {
			t.Fatal(err)
		}
		if dst.Processed() != ref.Processed() || dst.Now() != ref.Now() {
			t.Fatalf("stop=%d: resumed run ended at (%d, %.9g), want (%d, %.9g)",
				stop, dst.Processed(), dst.Now(), ref.Processed(), ref.Now())
		}
		if !reflect.DeepEqual(dstH.log, refH.log) {
			t.Fatalf("stop=%d: resumed event log diverges from the uninterrupted run", stop)
		}
	}
}

func TestCheckpointRefusesClosures(t *testing.T) {
	e := New()
	if err := e.After(1, func() {}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Checkpoint(); err == nil {
		t.Fatal("expected refusal: pending KindFunc event")
	}
}

func TestRestoreNeedsFreshEngine(t *testing.T) {
	src := New()
	h := &cpHandler{}
	seedEngine(t, src, h)
	cp, err := src.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	dirty := New()
	dirtyH := &cpHandler{}
	seedEngine(t, dirty, dirtyH)
	if err := dirty.Run(); err != nil {
		t.Fatal(err)
	}
	if err := dirty.Restore(cp); err == nil {
		t.Fatal("expected refusal: engine not fresh")
	}
	fresh := New()
	if err := fresh.Restore(cp); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointConcurrentRestores restores one checkpoint into several
// engines at once: the checkpoint is never mutated, and every fork
// replays the same events with the same index operands.
func TestCheckpointConcurrentRestores(t *testing.T) {
	src := New()
	h := &cpHandler{}
	seedEngine(t, src, h)
	if err := src.RunUntil(5); err != nil {
		t.Fatal(err)
	}
	cp, err := src.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	logs := make([][]cpEntry, 4)
	for i := range logs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e := New()
			eh := h.fork(e)
			eh.log = nil
			if err := e.Restore(cp); err != nil {
				panic(err)
			}
			if err := e.Run(); err != nil {
				panic(err)
			}
			logs[i] = eh.log
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(logs); i++ {
		if !reflect.DeepEqual(logs[i], logs[0]) {
			t.Fatalf("concurrent restore %d diverged", i)
		}
	}
	if len(logs[0]) == 0 {
		t.Fatal("restored runs executed no events")
	}
	for _, en := range logs[0] {
		if en.subj < 10 || en.subj >= 18 {
			t.Fatalf("restored event acts on subject %d, want the seeded 10..17", en.subj)
		}
	}
}

// slabHarness drives one engine through a scripted mix of typed events,
// closures and partial runs, logging dispatch order by event id and
// mirroring the engine's sequence counter so the test can build the
// (time, seq) reference order independently of the heap.
type slabHarness struct {
	t           *testing.T
	eng         *Engine
	log         []int32
	ref         []slabRef
	nextID      int32
	seq         uint64
	closures    int // closures scheduled and not yet run
	maxClosures int // most closures ever pending at once
	allClosures int // closures ever scheduled
}

type slabRef struct {
	at  float64
	seq uint64
	id  int32
}

func (h *slabHarness) note(at float64) int32 {
	id := h.nextID
	h.nextID++
	h.seq++
	h.ref = append(h.ref, slabRef{at: at, seq: h.seq, id: id})
	return id
}

func (h *slabHarness) typed(at float64) {
	id := h.note(at)
	if err := h.eng.AtEv(at, Ev{Kind: 1, Flag: id%2 == 1, Idx: id}); err != nil {
		h.t.Fatal(err)
	}
}

func (h *slabHarness) closure(at float64) {
	id := h.note(at)
	h.closures++
	h.allClosures++
	if err := h.eng.At(at, func() { h.log = append(h.log, id); h.closures-- }); err != nil {
		h.t.Fatal(err)
	}
	h.maxClosures = max(h.maxClosures, h.closures)
}

// HandleEvent logs the event and, for every third id, schedules a
// follow-up at a quarter-step multiple of now, so same-time ties arise
// from inside dispatch.
func (h *slabHarness) HandleEvent(ev Ev) {
	if ev.Kind != 1 || ev.Flag != (ev.Idx%2 == 1) {
		h.t.Fatalf("event %d: kind %d / flag %v corrupted in the heap", ev.Idx, ev.Kind, ev.Flag)
	}
	h.log = append(h.log, ev.Idx)
	if ev.Idx%3 == 0 {
		h.typed(h.eng.Now() + float64(ev.Idx%4)*0.25)
	}
}

// slabOp is one scripted step: kind 0 schedules a typed event, 1 a
// closure, 2 runs n more events; d is the delay in quarter steps.
type slabOp struct{ kind, d, n int }

func (h *slabHarness) apply(op slabOp) {
	at := h.eng.Now() + float64(op.d)*0.25
	switch op.kind {
	case 0:
		h.typed(at)
	case 1:
		h.closure(at)
	default:
		if err := h.eng.RunUntil(h.eng.Processed() + uint64(op.n)); err != nil {
			h.t.Fatal(err)
		}
	}
}

// TestSlabRandomizedOrderAndFork interleaves AtEv, At and RunUntil with
// same-time ties and heavy closure-slot reuse, checks the dispatch order
// against a (time, seq)-sorted reference, and forks the run mid-way into
// a Reset engine whose closure slab was fragmented by an earlier run:
// the fork's dispatch suffix must equal the original's.
func TestSlabRandomizedOrderAndFork(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	script := make([]slabOp, 4000)
	for i := range script {
		switch r := rng.Intn(10); {
		case r < 4:
			script[i] = slabOp{kind: 0, d: rng.Intn(4)}
		case r < 6:
			script[i] = slabOp{kind: 1, d: rng.Intn(3)}
		default:
			script[i] = slabOp{kind: 2, n: 1 + rng.Intn(5)}
		}
	}

	orig := &slabHarness{t: t, eng: New()}
	orig.eng.SetHandler(orig)
	var (
		fork   *slabHarness
		forkAt = -1 // script index after which the checkpoint was taken
		split  int  // len(orig.log) at the checkpoint
	)
	for i, op := range script {
		orig.apply(op)
		if fork == nil && i >= len(script)/2 && orig.closures == 0 && orig.eng.Pending() > 2 {
			cp, err := orig.eng.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			// Fragment a second engine's closure slab (free slots
			// below live ones), then Reset it and restore the
			// checkpoint there.
			eng := New()
			frag := &slabHarness{t: t, eng: eng}
			eng.SetHandler(frag)
			for j := 0; j < 64; j++ {
				if j%2 == 0 {
					frag.typed(float64(j % 7))
				} else {
					frag.closure(float64(j % 7))
				}
			}
			if err := eng.RunUntil(40); err != nil {
				t.Fatal(err)
			}
			if len(eng.freeFuncs) == 0 || frag.closures == 0 {
				t.Fatal("second engine's closure slab is not fragmented")
			}
			eng.Reset()
			if err := eng.Restore(cp); err != nil {
				t.Fatal(err)
			}
			fork = &slabHarness{t: t, eng: eng, nextID: orig.nextID, seq: orig.seq}
			eng.SetHandler(fork)
			forkAt, split = i, len(orig.log)
		}
		if fork != nil && i > forkAt {
			fork.apply(op)
		}
	}
	if fork == nil {
		t.Fatal("the script never reached a closure-free checkpoint point")
	}
	for _, h := range []*slabHarness{orig, fork} {
		if err := h.eng.Run(); err != nil {
			t.Fatal(err)
		}
	}

	ref := append([]slabRef(nil), orig.ref...)
	sort.Slice(ref, func(a, b int) bool {
		if ref[a].at != ref[b].at {
			return ref[a].at < ref[b].at
		}
		return ref[a].seq < ref[b].seq
	})
	want := make([]int32, len(ref))
	for i, r := range ref {
		want[i] = r.id
	}
	if !reflect.DeepEqual(orig.log, want) {
		t.Fatalf("dispatch order diverges from the (time, seq) reference over %d events", len(want))
	}
	if !reflect.DeepEqual(fork.log, orig.log[split:]) {
		t.Fatalf("fork dispatched %d events, diverging from the original's %d-event suffix",
			len(fork.log), len(orig.log)-split)
	}
	if fork.eng.Now() != orig.eng.Now() || fork.eng.Processed() != orig.eng.Processed() {
		t.Fatal("fork ended at a different time or event count")
	}
	// Closure slots are freed before dispatch and reused first, so the
	// closure slab is exactly as large as the most closures ever pending
	// at once.
	if len(orig.eng.funcs) != orig.maxClosures {
		t.Fatalf("closure slab has %d slots, want the peak pending count %d", len(orig.eng.funcs), orig.maxClosures)
	}
	if orig.allClosures < 10*len(orig.eng.funcs) {
		t.Fatalf("%d closures over %d slots: too little slot reuse to exercise the free list",
			orig.allClosures, len(orig.eng.funcs))
	}
}
