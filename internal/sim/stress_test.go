package sim

import (
	"slices"
	"sort"
	"testing"
)

// TestKernelStressCrossCheck schedules 100k events at random times with
// random Stops — some from the top level, some from inside running
// callbacks, exercising arena slot reuse — and cross-checks the observed
// firing order against a reference ordering computed independently by
// sorting on (time, schedule order).
func TestKernelStressCrossCheck(t *testing.T) {
	const (
		topLevel = 60000
		nested   = 40000
		horizon  = 1000.0
	)
	rng := NewRNG(12345)
	s := New()

	type sched struct {
		at      Time
		id      int
		stopped bool
	}
	var all []sched
	var fired []int
	timers := make(map[int]Timer)

	schedule := func(at Time) {
		id := len(all)
		all = append(all, sched{at: at, id: id})
		timers[id] = s.At(at, func() { fired = append(fired, id) })
	}
	stopRandom := func() {
		// Pick a random id; if its timer is still pending, stop it and
		// record that it must never fire.
		id := rng.Intn(len(all))
		if timers[id].Stop() {
			all[id].stopped = true
		}
	}

	for i := 0; i < topLevel; i++ {
		schedule(rng.Uniform(0, horizon))
		if i%3 == 0 {
			stopRandom()
		}
	}
	// The remaining events are scheduled from inside callbacks, at times
	// at or after the running event, so slots freed by fired and stopped
	// events get reused while the run is in flight.
	var inject func()
	injected := 0
	inject = func() {
		if injected >= nested {
			return
		}
		injected++
		schedule(s.Now() + rng.Uniform(0, horizon/10))
		if injected%4 == 0 {
			stopRandom()
		}
		s.After(rng.Uniform(0, horizon/100), inject)
	}
	s.After(0, inject)
	s.Run()

	// Reference ordering: every unstopped event, sorted by (at, id).
	// Schedule order equals id order here, and the kernel breaks time
	// ties by schedule sequence, so this total order must match exactly.
	var want []sched
	for _, e := range all {
		if !e.stopped {
			want = append(want, e)
		}
	}
	sort.SliceStable(want, func(i, j int) bool {
		if want[i].at != want[j].at {
			return want[i].at < want[j].at
		}
		return want[i].id < want[j].id
	})
	if len(fired) != len(want) {
		t.Fatalf("fired %d events, reference expects %d", len(fired), len(want))
	}
	for i := range want {
		if fired[i] != want[i].id {
			t.Fatalf("firing order diverges at position %d: got id %d (t=%v), want id %d (t=%v)",
				i, fired[i], all[fired[i]].at, want[i].id, want[i].at)
		}
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d after drain, want 0", s.Pending())
	}
}

// TestTimerHandleSafeAcrossArenaReuse pins the sequence-number guarantee:
// a handle to a fired (or stopped) event must stay dead even after its
// arena slot is recycled for a newer event, and must never be able to stop
// the newcomer.
func TestTimerHandleSafeAcrossArenaReuse(t *testing.T) {
	s := New()
	stale := s.At(1, func() {})
	s.Run() // fires the event and releases its slot

	newFired := false
	fresh := s.At(2, func() { newFired = true })
	if stale.Pending() {
		t.Fatal("handle to a fired event reports pending after slot reuse")
	}
	if stale.Stop() {
		t.Fatal("handle to a fired event stopped a recycled slot's new event")
	}
	s.Run()
	if !newFired {
		t.Fatal("new event did not fire — stale handle interfered with reused slot")
	}
	if fresh.Pending() || fresh.Stop() {
		t.Fatal("fired event's own handle still live")
	}

	// Same property for a stopped (never fired) event's handle.
	stopped := s.At(10, func() { t.Fatal("stopped event fired") })
	if !stopped.Stop() {
		t.Fatal("Stop on a pending timer returned false")
	}
	reused := false
	s.At(10, func() { reused = true })
	if stopped.Stop() || stopped.Pending() {
		t.Fatal("stopped handle came back to life after slot reuse")
	}
	s.Run()
	if !reused {
		t.Fatal("event in reused slot did not fire")
	}

	// Same property for a stopped event chained behind a tie: its slot is
	// freed when its chain's head reaches it, and a later At reuses it.
	s.At(20, func() {})
	chained := s.At(20, func() { t.Fatal("stopped chained event fired") })
	tailFired := false
	s.At(20, func() { tailFired = true })
	if !chained.Stop() {
		t.Fatal("Stop on a pending chained timer returned false")
	}
	if chained.Pending() || chained.Stop() {
		t.Fatal("stopped chained handle still live")
	}
	s.RunUntil(20)
	if !tailFired {
		t.Fatal("event chained behind a stopped one did not fire")
	}
	// The three freed slots and one new one: the chained slot must be
	// handed out exactly once.
	fired := 0
	newcomers := make([]Timer, 4)
	for i := range newcomers {
		newcomers[i] = s.At(30, func() { fired++ })
	}
	i := slices.IndexFunc(newcomers, func(n Timer) bool { return n.idx == chained.idx })
	if i < 0 {
		t.Fatal("no later At reused the stopped chained slot")
	}
	if chained.Pending() || chained.Stop() {
		t.Fatal("stopped chained handle came back to life after slot reuse")
	}
	for _, n := range newcomers {
		if !n.Pending() {
			t.Fatal("a newcomer is not pending before the run")
		}
	}
	s.Run()
	if fired != len(newcomers) {
		t.Fatalf("%d of %d events fired after the chained slot's reuse", fired, len(newcomers))
	}
}

// TestPendingCountsLiveEventsOnly pins the Pending semantics: stopped
// events are removed eagerly and never inflate the count.
func TestPendingCountsLiveEventsOnly(t *testing.T) {
	s := New()
	timers := make([]Timer, 10)
	for i := range timers {
		timers[i] = s.At(Time(i+1), func() {})
	}
	if s.Pending() != 10 {
		t.Fatalf("Pending = %d, want 10", s.Pending())
	}
	for _, i := range []int{2, 5, 9} {
		timers[i].Stop()
	}
	if s.Pending() != 7 {
		t.Fatalf("Pending = %d after 3 stops, want 7", s.Pending())
	}
	s.Run()
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d after drain, want 0", s.Pending())
	}
	if s.EventsFired() != 7 {
		t.Fatalf("EventsFired = %d, want 7", s.EventsFired())
	}
}

// TestZeroTimer pins that the zero Timer behaves as already expired.
func TestZeroTimer(t *testing.T) {
	var tm Timer
	if tm.Pending() {
		t.Fatal("zero Timer reports pending")
	}
	if tm.Stop() {
		t.Fatal("zero Timer Stop returned true")
	}
}

// TestStationRepairResetsProgressClock pins the Repair fix: time spent in
// the failed state must never be charged to BusyTime or to the first
// post-repair request.
func TestStationRepairResetsProgressClock(t *testing.T) {
	s := New()
	st := NewStation(s, "d0", 10)
	st.SubmitFunc(100, nil) // would finish at t=10
	s.At(5, func() { st.Fail() })
	s.At(20, func() { st.Repair() })
	var finished Time
	s.At(20, func() { st.SubmitFunc(100, func(r *Request) { finished = r.Finished }) })
	s.Run()
	if !almostEqual(finished, 30, 1e-9) {
		t.Fatalf("post-repair request finished at %v, want 30", finished)
	}
	// Busy: 0..5 before the failure, 20..30 after repair.
	if !almostEqual(st.BusyTime(), 15, 1e-9) {
		t.Fatalf("busy = %v, want 15 (downtime must not be charged)", st.BusyTime())
	}
}

// TestStationDeepQueueFIFO pushes the ring buffer through several growth
// cycles and wraparounds and checks strict FIFO completion order.
func TestStationDeepQueueFIFO(t *testing.T) {
	s := New()
	st := NewStation(s, "d0", 1000)
	const n = 5000
	var order []int
	submitted := 0
	// Submit in bursts from inside the simulation so the ring drains and
	// refills, forcing head wraparound, not just growth.
	var burst func()
	burst = func() {
		for i := 0; i < 700 && submitted < n; i++ {
			id := submitted
			submitted++
			st.SubmitFunc(1, func(*Request) { order = append(order, id) })
		}
		if submitted < n {
			s.After(0.1, burst)
		}
	}
	s.After(0, burst)
	s.Run()
	if len(order) != n {
		t.Fatalf("completed %d requests, want %d", len(order), n)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO violated at %d: got %d", i, v)
		}
	}
	if st.Completed() != n {
		t.Fatalf("Completed = %d, want %d", st.Completed(), n)
	}
}
