package sim

import (
	"errors"
	"fmt"
)

// Event is a callback executed at its scheduled virtual time.
type Event func(now Time)

// SlotEvent is a typed event callback: the engine passes back the int32 the
// caller scheduled it with, typically an index into the caller's own slab of
// pending work. Binding one SlotEvent once (a method value stored at
// construction) and scheduling it with AtSlot/AfterSlot costs no allocation
// per event, where At with a fresh closure allocates the closure.
type SlotEvent func(now Time, slot int32)

// Handle identifies a scheduled event so it can be cancelled. It is a small
// value (engine, slot, generation); copying it is free and storing it holds
// no memory alive beyond the engine. The zero Handle refers to no event.
//
// A handle stays bound to the one event it was returned for: once that
// event has fired (one-shot) or been cancelled, its slot's generation moves
// on, and the handle can neither cancel nor observe whatever event reuses
// the slot next. (Generations are 32-bit, so that guarantee would lapse
// for a handle kept across 2³² reuses of one slot; heap entries do not
// depend on it, as they are matched by their unique sequence number.)
type Handle struct {
	e    *Engine
	slot int32
	gen  uint32
}

// Cancel removes the event from the queue if it has not fired yet. For
// periodic events it stops all future firings. Cancelling the zero Handle,
// an already-fired one-shot or an already-cancelled event is a no-op.
func (h Handle) Cancel() {
	if h.Valid() {
		h.e.release(h.slot)
	}
}

// Valid reports whether the handle's event is still scheduled: a one-shot
// that has neither fired nor been cancelled, or a periodic event that has
// not been cancelled. The zero Handle is never valid.
func (h Handle) Valid() bool {
	return h.e != nil && h.e.slots[h.slot].gen == h.gen
}

// entry is one heap element. It holds no pointers, so the queue is a flat
// array the garbage collector never scans, and sifting touches only these
// 24 bytes. The entry is live while its slot's seq still equals its own:
// cancelling or firing an event moves the slot on, leaving the entry stale
// until it reaches the top of the heap and is dropped.
type entry struct {
	at   Time
	seq  uint64 // tiebreaker: FIFO among events at the same time; unique
	slot int32
}

// less orders entries by (at, seq). seq is unique, so the order is total
// and the pop sequence does not depend on the heap's shape.
func (a entry) less(b entry) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// freeSeq marks a slot with no live heap entry; the engine never hands out
// this sequence number.
const freeSeq = ^uint64(0)

// slot is the per-event state the heap entries point at by index.
type slot struct {
	fn       Event
	sfn      SlotEvent // set instead of fn for typed events
	interval Duration  // > 0 for periodic events
	seq      uint64    // seq of the slot's live heap entry, freeSeq when free
	arg      int32     // passed to sfn
	gen      uint32    // bumped on every release; matches live Handles
}

// Engine is a single-threaded discrete-event simulator. Events scheduled for
// the same timestamp fire in scheduling order, making runs fully
// deterministic. Engine is not safe for concurrent use; all simulated
// components run inside event callbacks on one goroutine.
//
// The queue is a 4-ary min-heap of pointer-free entries over a slab of
// event slots recycled through a free list, so steady-state scheduling,
// firing and cancelling allocate nothing.
type Engine struct {
	now     Time
	heap    []entry
	slots   []slot
	free    []int32
	seq     uint64
	stopped bool
	stepLim uint64 // safety valve against runaway event loops; 0 = unlimited
	steps   uint64
}

// NewEngine returns an engine with the clock at time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// SetStepLimit bounds the total number of events the engine will execute;
// exceeding it makes Run return an error. Zero (the default) means unlimited.
func (e *Engine) SetStepLimit(n uint64) { e.stepLim = n }

// ErrStepLimit is returned by Run/RunUntil when the configured step limit is
// exceeded, which almost always indicates an event loop rescheduling itself
// at the current time.
var ErrStepLimit = errors.New("sim: step limit exceeded")

// At schedules fn to run at virtual time t. Scheduling in the past (before
// Now) panics: it would silently reorder causality.
func (e *Engine) At(t Time, name string, fn Event) Handle {
	return e.schedule(t, name, fn, nil, 0, 0)
}

// After schedules fn to run d after the current time. Negative d panics.
func (e *Engine) After(d Duration, name string, fn Event) Handle {
	return e.schedule(e.now.Add(d), name, fn, nil, 0, 0)
}

// AtSlot schedules fn(t, slot) to run at virtual time t; it orders and
// cancels exactly like At. Scheduling in the past panics.
func (e *Engine) AtSlot(t Time, name string, fn SlotEvent, slot int32) Handle {
	return e.schedule(t, name, nil, fn, slot, 0)
}

// AfterSlot schedules fn(now, slot) to run d after the current time.
// Negative d panics.
func (e *Engine) AfterSlot(d Duration, name string, fn SlotEvent, slot int32) Handle {
	return e.schedule(e.now.Add(d), name, nil, fn, slot, 0)
}

// Every schedules fn to run first at time start and then every interval
// thereafter, until the returned handle is cancelled. interval must be
// positive.
func (e *Engine) Every(start Time, interval Duration, name string, fn Event) Handle {
	if interval <= 0 {
		panic(fmt.Sprintf("sim: non-positive interval %v for periodic event %q", interval, name))
	}
	return e.schedule(start, name, fn, nil, 0, interval)
}

func (e *Engine) schedule(t Time, name string, fn Event, sfn SlotEvent, arg int32, interval Duration) Handle {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling %q at %v, before now %v", name, t, e.now))
	}
	var i int32
	if n := len(e.free); n > 0 {
		i = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		i = int32(len(e.slots))
		e.slots = append(e.slots, slot{seq: freeSeq})
	}
	s := &e.slots[i]
	s.fn, s.sfn, s.arg, s.interval, s.seq = fn, sfn, arg, interval, e.seq
	e.push(entry{at: t, seq: e.seq, slot: i})
	e.seq++
	return Handle{e: e, slot: i, gen: s.gen}
}

// release frees slot i for reuse: its heap entry (if any) turns stale and
// every Handle to it is invalidated.
func (e *Engine) release(i int32) {
	s := &e.slots[i]
	s.gen++
	s.seq = freeSeq
	s.fn, s.sfn = nil, nil
	e.free = append(e.free, i)
}

// Step executes the next pending event, advancing the clock to its timestamp.
// It reports whether an event was executed (false when the queue is empty or
// the engine was stopped).
func (e *Engine) Step() bool {
	for len(e.heap) > 0 && !e.stopped {
		top := e.heap[0]
		s := &e.slots[top.slot]
		if s.seq != top.seq {
			e.pop()
			continue
		}
		e.now = top.at
		e.steps++
		if s.interval > 0 {
			// Re-arm before running so the callback can cancel via its
			// handle; the new entry replaces the fired one in place.
			s.seq = e.seq
			e.heap[0] = entry{at: top.at.Add(s.interval), seq: e.seq, slot: top.slot}
			e.seq++
			e.down(0)
			s.fn(e.now)
			return true
		}
		e.pop()
		fn, sfn, arg := s.fn, s.sfn, s.arg
		e.release(top.slot)
		if sfn != nil {
			sfn(e.now, arg)
		} else {
			fn(e.now)
		}
		return true
	}
	return false
}

// Run executes events until the queue is empty, Stop is called, or the step
// limit is exceeded.
func (e *Engine) Run() error {
	for e.Step() {
		if e.stepLim > 0 && e.steps > e.stepLim {
			return fmt.Errorf("%w after %d events at %v", ErrStepLimit, e.steps, e.now)
		}
	}
	return nil
}

// RunUntil executes events with timestamps ≤ end, then sets the clock to end.
// Events scheduled after end remain queued, so the simulation can be resumed.
func (e *Engine) RunUntil(end Time) error {
	for len(e.heap) > 0 && !e.stopped {
		top := e.heap[0]
		if e.slots[top.slot].seq != top.seq {
			e.pop() // stale: drop it, as Step would
			continue
		}
		if top.at > end {
			break
		}
		e.Step()
		if e.stepLim > 0 && e.steps > e.stepLim {
			return fmt.Errorf("%w after %d events at %v", ErrStepLimit, e.steps, e.now)
		}
	}
	if !e.stopped && e.now < end {
		e.now = end
	}
	return nil
}

// Stop halts Run/RunUntil after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }

// Pending returns the number of heap entries, counting stale entries of
// cancelled events that have not yet reached the top of the queue (they are
// dropped there, by Step and RunUntil); intended for tests and diagnostics.
func (e *Engine) Pending() int { return len(e.heap) }

// Steps returns the number of events executed so far.
func (e *Engine) Steps() uint64 { return e.steps }

// push adds x to the 4-ary heap (children of i are 4i+1 … 4i+4).
func (e *Engine) push(x entry) {
	e.heap = append(e.heap, x)
	h := e.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !x.less(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
}

// pop removes the heap's top entry.
func (e *Engine) pop() {
	n := len(e.heap) - 1
	e.heap[0] = e.heap[n]
	e.heap = e.heap[:n]
	if n > 1 {
		e.down(0)
	}
}

// down restores the heap order below i after h[i] grew.
func (e *Engine) down(i int) {
	h := e.heap
	n := len(h)
	x := h[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for k := c + 1; k < end; k++ {
			if h[k].less(h[m]) {
				m = k
			}
		}
		if !h[m].less(x) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = x
}
