package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []Time
	e.At(30*Time(Second), "c", func(now Time) { got = append(got, now) })
	e.At(10*Time(Second), "a", func(now Time) { got = append(got, now) })
	e.At(20*Time(Second), "b", func(now Time) { got = append(got, now) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{10 * Time(Second), 20 * Time(Second), 30 * Time(Second)}
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d at %v, want %v", i, got[i], want[i])
		}
	}
	if e.Now() != 30*Time(Second) {
		t.Errorf("clock at %v, want 30s", e.Now())
	}
}

func TestEngineSameTimeFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(Time(Minute), "tied", func(Time) { order = append(order, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("tied events ran out of order: %v", order)
		}
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(Time(Minute), "later", func(Time) {})
	e.Step()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling before Now did not panic")
		}
	}()
	e.At(0, "past", func(Time) {})
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	h := e.At(Time(Second), "x", func(Time) { fired = true })
	h.Cancel()
	h.Cancel() // double-cancel is a no-op
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("cancelled event fired")
	}
}

func TestEnginePeriodic(t *testing.T) {
	e := NewEngine()
	count := 0
	var h Handle
	h = e.Every(Time(Minute), Minute, "tick", func(now Time) {
		count++
		if count == 5 {
			h.Cancel()
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Errorf("periodic event fired %d times, want 5", count)
	}
	if e.Now() != Time(5*Minute) {
		t.Errorf("clock at %v, want 5m", e.Now())
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Every(0, Minute, "tick", func(Time) { count++ })
	if err := e.RunUntil(Time(10 * Minute)); err != nil {
		t.Fatal(err)
	}
	if count != 11 { // fires at 0,1,...,10 minutes inclusive
		t.Errorf("fired %d times, want 11", count)
	}
	if e.Now() != Time(10*Minute) {
		t.Errorf("clock at %v, want 10m", e.Now())
	}
	// Resume: the periodic event is still armed.
	if err := e.RunUntil(Time(12 * Minute)); err != nil {
		t.Fatal(err)
	}
	if count != 13 {
		t.Errorf("after resume fired %d times, want 13", count)
	}
}

func TestEngineRunUntilAdvancesIdleClock(t *testing.T) {
	e := NewEngine()
	if err := e.RunUntil(Time(Hour)); err != nil {
		t.Fatal(err)
	}
	if e.Now() != Time(Hour) {
		t.Errorf("idle clock at %v, want 1h", e.Now())
	}
}

func TestEngineStepLimit(t *testing.T) {
	e := NewEngine()
	e.SetStepLimit(10)
	e.Every(0, Millisecond, "spin", func(Time) {})
	if err := e.Run(); err == nil {
		t.Fatal("expected step-limit error")
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Every(0, Second, "tick", func(Time) {
		count++
		if count == 3 {
			e.Stop()
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Errorf("ran %d events after Stop, want 3", count)
	}
	if !e.Stopped() {
		t.Error("Stopped() = false after Stop")
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	e := NewEngine()
	var got []string
	e.At(Time(Second), "first", func(now Time) {
		got = append(got, "first")
		e.After(Second, "second", func(Time) { got = append(got, "second") })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1] != "second" {
		t.Errorf("chained events = %v", got)
	}
}

func TestTimeFormatting(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{0, "d0 00:00:00.000"},
		{Time(Day + Hour + Minute + Second + 1), "d1 01:01:01.001"},
		{Time(90 * Second), "d0 00:01:30.000"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestDurationHelpers(t *testing.T) {
	if d := DurationOfSeconds(1.5); d != 1500*Millisecond {
		t.Errorf("DurationOfSeconds(1.5) = %d", d)
	}
	if d := DurationOfMinutes(2); d != 2*Minute {
		t.Errorf("DurationOfMinutes(2) = %d", d)
	}
	if m := (90 * Second).Minutes(); m != 1.5 {
		t.Errorf("Minutes() = %v", m)
	}
	if h := Time(3*Hour + Minute).HourOfDay(); h != 3 {
		t.Errorf("HourOfDay = %d", h)
	}
	if h := Time(25 * Hour).HourOfDay(); h != 1 {
		t.Errorf("HourOfDay wraps to %d, want 1", h)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewRNG(43)
	same := true
	a = NewRNG(42)
	for i := 0; i < 10; i++ {
		if a.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestSubSeedIndependence(t *testing.T) {
	s1 := SubSeed(1, "arrivals")
	s2 := SubSeed(1, "noise")
	s3 := SubSeed(2, "arrivals")
	if s1 == s2 || s1 == s3 {
		t.Errorf("SubSeed collisions: %x %x %x", s1, s2, s3)
	}
	if s1 != SubSeed(1, "arrivals") {
		t.Error("SubSeed not deterministic")
	}
}

func TestPoissonMean(t *testing.T) {
	r := NewRNG(7)
	for _, mean := range []float64{0.5, 3, 12, 200} {
		n := 20000
		sum := 0
		for i := 0; i < n; i++ {
			sum += Poisson(r, mean)
		}
		got := float64(sum) / float64(n)
		if got < mean*0.95-0.05 || got > mean*1.05+0.05 {
			t.Errorf("Poisson(%v) sample mean %v", mean, got)
		}
	}
	if Poisson(r, 0) != 0 || Poisson(r, -1) != 0 {
		t.Error("Poisson of non-positive mean should be 0")
	}
}

func TestLogNormalAndExponentialMeans(t *testing.T) {
	r := NewRNG(11)
	n := 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += Exponential(r, 4.0)
	}
	if m := sum / float64(n); m < 3.9 || m > 4.1 {
		t.Errorf("Exponential mean %v, want ≈4", m)
	}
	sum = 0
	for i := 0; i < n; i++ {
		sum += LogNormal(r, 0, 0.25) // mean = exp(0.03125) ≈ 1.0317
	}
	if m := sum / float64(n); m < 1.02 || m > 1.05 {
		t.Errorf("LogNormal mean %v, want ≈1.032", m)
	}
}

// Property: RunUntil never moves the clock backwards and never executes an
// event beyond the horizon.
func TestRunUntilMonotonicProperty(t *testing.T) {
	f := func(delays []uint16, horizon uint16) bool {
		e := NewEngine()
		ok := true
		for _, d := range delays {
			at := Time(d) * Time(Second)
			e.At(at, "evt", func(now Time) {
				if now != at || now > Time(horizon)*Time(Second)+Time(horizon)*Time(Second) {
					ok = false
				}
			})
		}
		end := Time(horizon) * Time(Second)
		prev := e.Now()
		if err := e.RunUntil(end); err != nil {
			return false
		}
		if e.Now() < prev || e.Now() != end && e.Pending() == 0 {
			// Clock must land exactly on the horizon when it did not stop.
			return e.Now() == end
		}
		return ok && e.Now() == end
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// refEngine is the engine as it was before the slot slab: a container/heap
// of *refItem with tombstone cancellation. It is kept only as the oracle
// for TestEngineMatchesReferenceProperty; its ordering by (at, seq), its
// re-arm-before-callback rule for periodic events and its Pending count
// (tombstones included) are the contract the real engine must keep.
type refEngine struct {
	now   Time
	queue refHeap
	seq   uint64
	steps uint64
}

type refItem struct {
	at        Time
	seq       uint64
	fn        Event
	interval  Duration
	cancelled bool
}

type refHandle struct{ item *refItem }

func (h *refHandle) Cancel() {
	if h != nil && h.item != nil {
		h.item.cancelled = true
	}
}

type refHeap []*refItem

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refItem)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}

func (e *refEngine) Now() Time     { return e.now }
func (e *refEngine) Steps() uint64 { return e.steps }
func (e *refEngine) Pending() int  { return len(e.queue) }
func (e *refEngine) add(it *refItem) canceller {
	if it.at < e.now {
		panic("ref: scheduling in the past")
	}
	it.seq = e.seq
	e.seq++
	heap.Push(&e.queue, it)
	return &refHandle{item: it}
}
func (e *refEngine) at(t Time, fn Event) canceller { return e.add(&refItem{at: t, fn: fn}) }
func (e *refEngine) every(start Time, iv Duration, fn Event) canceller {
	return e.add(&refItem{at: start, fn: fn, interval: iv})
}

// atSlot has no typed form in the reference: a closure over the slot is
// what callers wrote before AtSlot existed.
func (e *refEngine) atSlot(t Time, fn SlotEvent, slot int32) canceller {
	return e.at(t, func(now Time) { fn(now, slot) })
}

func (e *refEngine) Step() bool {
	for len(e.queue) > 0 {
		it := heap.Pop(&e.queue).(*refItem)
		if it.cancelled {
			continue
		}
		e.now = it.at
		e.steps++
		if it.interval > 0 {
			it.at = it.at.Add(it.interval)
			it.seq = e.seq
			e.seq++
			heap.Push(&e.queue, it)
		}
		it.fn(e.now)
		return true
	}
	return false
}

func (e *refEngine) RunUntil(end Time) error {
	for len(e.queue) > 0 {
		if e.queue[0].cancelled {
			heap.Pop(&e.queue)
			continue
		}
		if e.queue[0].at > end {
			break
		}
		e.Step()
	}
	if e.now < end {
		e.now = end
	}
	return nil
}

// canceller is what both engines' handles offer the differential test.
type canceller interface{ Cancel() }

// engineUnderTest adapts the real engine to diffEngine.
type engineUnderTest struct{ *Engine }

func (e engineUnderTest) at(t Time, fn Event) canceller { return e.At(t, "diff", fn) }
func (e engineUnderTest) every(start Time, iv Duration, fn Event) canceller {
	return e.Every(start, iv, "diff", fn)
}
func (e engineUnderTest) atSlot(t Time, fn SlotEvent, slot int32) canceller {
	return e.AtSlot(t, "diff", fn, slot)
}

type diffEngine interface {
	Now() Time
	Steps() uint64
	Pending() int
	Step() bool
	RunUntil(Time) error
	at(Time, Event) canceller
	every(Time, Duration, Event) canceller
	atSlot(Time, SlotEvent, int32) canceller
}

// diffWorld drives one engine. Callbacks draw their reactions from the
// world's own RNG; two worlds seeded alike stay in lockstep exactly as long
// as their engines fire the same events in the same order.
type diffWorld struct {
	eng     diffEngine
	rng     *rand.Rand
	handles []canceller // by event id
	log     []string
	slotFn  SlotEvent
}

func newDiffWorld(eng diffEngine, seed int64) *diffWorld {
	w := &diffWorld{eng: eng, rng: rand.New(rand.NewSource(seed))}
	w.slotFn = func(now Time, slot int32) { w.fire(int(slot), now) }
	return w
}

// schedule adds one event of a random kind and returns its id.
func (w *diffWorld) schedule() {
	id := len(w.handles)
	w.handles = append(w.handles, nil)
	t := w.eng.Now().Add(Duration(w.rng.Intn(6)))
	var h canceller
	switch w.rng.Intn(4) {
	case 0:
		h = w.eng.at(t, func(now Time) { w.fire(id, now) })
	case 1:
		h = w.eng.every(t, Duration(1+w.rng.Intn(4)), func(now Time) { w.fire(id, now) })
	default:
		h = w.eng.atSlot(t, w.slotFn, int32(id))
	}
	w.handles[id] = h
}

// fire logs the event and reacts: cancel itself (a no-op for a one-shot,
// the end of a periodic event), cancel any other event (fired or not), or
// schedule a new one.
func (w *diffWorld) fire(id int, now Time) {
	w.log = append(w.log, fmt.Sprintf("%d@%d", id, now))
	if w.rng.Intn(5) == 0 {
		w.handles[id].Cancel()
	}
	if w.rng.Intn(4) == 0 {
		w.handles[w.rng.Intn(len(w.handles))].Cancel()
	}
	if w.rng.Intn(3) == 0 && len(w.handles) < 400 {
		w.schedule()
	}
}

// op applies one top-level operation drawn from the world's RNG.
func (w *diffWorld) op() string {
	switch k := w.rng.Intn(10); {
	case k < 4:
		w.schedule()
		return "schedule"
	case k < 6 && len(w.handles) > 0:
		w.handles[w.rng.Intn(len(w.handles))].Cancel()
		return "cancel"
	case k < 8:
		return fmt.Sprintf("step=%v", w.eng.Step())
	default:
		end := w.eng.Now().Add(Duration(w.rng.Intn(8)))
		if err := w.eng.RunUntil(end); err != nil {
			return err.Error()
		}
		return fmt.Sprintf("until %d", end)
	}
}

func (w *diffWorld) state() string {
	return fmt.Sprintf("now=%d steps=%d pending=%d fired=%d", w.eng.Now(), w.eng.Steps(), w.eng.Pending(), len(w.log))
}

// Property: over random At/Every/AtSlot/Cancel/Step/RunUntil sequences —
// including cancels from inside callbacks, cancels of already-fired events
// and periodic events cancelling themselves — the slab engine fires the
// same events at the same times as the container/heap reference, and
// agrees on Now, Steps and Pending after every operation.
func TestEngineMatchesReferenceProperty(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		ref := newDiffWorld(&refEngine{}, seed)
		got := newDiffWorld(engineUnderTest{NewEngine()}, seed)
		for i := 0; i < 300; i++ {
			ro, go_ := ref.op(), got.op()
			if ro != go_ || ref.state() != got.state() {
				t.Fatalf("seed %d op %d: reference %s → %s, engine %s → %s",
					seed, i, ro, ref.state(), go_, got.state())
			}
			for j := range ref.log {
				if ref.log[j] != got.log[j] {
					t.Fatalf("seed %d op %d: firing %d: reference %s, engine %s", seed, i, j, ref.log[j], got.log[j])
				}
			}
		}
	}
}

// A handle whose event was cancelled, or has fired, must not reach the
// unrelated event that reuses its slot.
func TestStaleHandleCannotCancelReusedSlot(t *testing.T) {
	e := NewEngine()
	fired := map[string]bool{}
	mark := func(name string) Event { return func(Time) { fired[name] = true } }

	h1 := e.At(1, "first", mark("first"))
	h1.Cancel()
	h2 := e.At(1, "second", mark("second"))
	if h2.slot != h1.slot {
		t.Fatalf("slot not reused (%d then %d); the test needs reuse", h1.slot, h2.slot)
	}
	h1.Cancel()
	if h1.Valid() || !h2.Valid() {
		t.Fatalf("Valid: stale %v, live %v", h1.Valid(), h2.Valid())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired["first"] || !fired["second"] {
		t.Fatalf("fired = %v, want only second", fired)
	}

	// Fired, then reused: the old handle is equally dead.
	h3 := e.At(5, "third", mark("third"))
	if h3.slot != h2.slot {
		t.Fatalf("slot not reused after firing (%d then %d)", h2.slot, h3.slot)
	}
	h2.Cancel()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired["third"] {
		t.Fatal("stale handle of a fired event cancelled the slot's next event")
	}
	var zero Handle
	zero.Cancel()
	if zero.Valid() {
		t.Fatal("zero Handle is valid")
	}
}

// The event core's allocation contract: once the slab and heap have grown
// to the working set, scheduling (At, AtSlot), firing (Step) and cancelling
// allocate nothing.
func TestEngineSteadyStateAllocatesNothing(t *testing.T) {
	e := NewEngine()
	n := 0
	fn := func(Time) { n++ }
	sfn := func(_ Time, slot int32) { n += int(slot) }
	cycle := func() {
		for i := 0; i < 64; i++ {
			h := e.After(Duration(i%7), "a", fn)
			e.AfterSlot(Duration(i%5), "s", sfn, int32(i))
			if i%3 == 0 {
				h.Cancel()
			}
		}
		for e.Step() {
		}
	}
	cycle() // grow the slab, free list and heap once
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("steady-state At/AtSlot/Step/Cancel allocated %.1f objects per cycle, want 0", allocs)
	}
}
