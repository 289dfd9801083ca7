package sim

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestStationSingleRequest(t *testing.T) {
	s := New()
	st := NewStation(s, "d0", 10) // 10 units/s
	var done *Request
	st.SubmitFunc(50, func(r *Request) { done = r })
	s.Run()
	if done == nil {
		t.Fatal("request did not complete")
	}
	if !almostEqual(done.Finished, 5, 1e-9) {
		t.Fatalf("finished at %v, want 5", done.Finished)
	}
	if done.Wait() != 0 {
		t.Fatalf("wait = %v, want 0", done.Wait())
	}
	if st.Completed() != 1 {
		t.Fatalf("completed = %d", st.Completed())
	}
}

func TestStationFIFO(t *testing.T) {
	s := New()
	st := NewStation(s, "d0", 1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		st.SubmitFunc(1, func(*Request) { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO violated: %v", order)
		}
	}
	if s.Now() != 5 {
		t.Fatalf("five unit jobs at rate 1 ended at %v, want 5", s.Now())
	}
}

func TestStationQueueingLatency(t *testing.T) {
	s := New()
	st := NewStation(s, "d0", 2)
	var second *Request
	st.SubmitFunc(4, nil)                             // served 0..2
	st.SubmitFunc(4, func(r *Request) { second = r }) // served 2..4
	s.Run()
	if second == nil {
		t.Fatal("second request did not finish")
	}
	if !almostEqual(second.Wait(), 2, 1e-9) {
		t.Fatalf("second wait = %v, want 2", second.Wait())
	}
	if !almostEqual(second.Latency(), 4, 1e-9) {
		t.Fatalf("second latency = %v, want 4", second.Latency())
	}
}

func TestStationRateChangeMidService(t *testing.T) {
	// 100 units at rate 10 takes 10 s; halving the multiplier at t=5 leaves
	// 50 units at rate 5 => finish at t=15.
	s := New()
	st := NewStation(s, "d0", 10)
	var finished Time
	st.SubmitFunc(100, func(r *Request) { finished = r.Finished })
	s.At(5, func() { st.SetMultiplier(0.5) })
	s.Run()
	if !almostEqual(finished, 15, 1e-9) {
		t.Fatalf("finished at %v, want 15", finished)
	}
}

func TestStationStallAndResume(t *testing.T) {
	// Stall (multiplier 0) pauses work without losing progress.
	s := New()
	st := NewStation(s, "d0", 10)
	var finished Time
	st.SubmitFunc(100, func(r *Request) { finished = r.Finished })
	s.At(3, func() { st.SetMultiplier(0) })
	s.At(7, func() { st.SetMultiplier(1) })
	s.Run()
	// 30 units done by t=3, 70 remain, resume at 7 => finish at 14.
	if !almostEqual(finished, 14, 1e-9) {
		t.Fatalf("finished at %v, want 14", finished)
	}
}

func TestStationMultiplierAboveOne(t *testing.T) {
	s := New()
	st := NewStation(s, "d0", 10)
	st.SetMultiplier(2)
	var finished Time
	st.SubmitFunc(100, func(r *Request) { finished = r.Finished })
	s.Run()
	if !almostEqual(finished, 5, 1e-9) {
		t.Fatalf("finished at %v, want 5 at doubled rate", finished)
	}
}

func TestStationFailAbandonsWork(t *testing.T) {
	s := New()
	st := NewStation(s, "d0", 1)
	completions := 0
	for i := 0; i < 3; i++ {
		st.SubmitFunc(10, func(*Request) { completions++ })
	}
	s.At(5, func() { st.Fail() })
	s.Run()
	if completions != 0 {
		t.Fatalf("completions after early failure = %d, want 0", completions)
	}
	if st.Abandoned() != 3 {
		t.Fatalf("abandoned = %d, want 3", st.Abandoned())
	}
	if !st.Failed() {
		t.Fatal("station not marked failed")
	}
	if st.EffectiveRate() != 0 {
		t.Fatal("failed station has non-zero rate")
	}
}

func TestStationSubmitAfterFail(t *testing.T) {
	s := New()
	st := NewStation(s, "d0", 1)
	st.Fail()
	st.SubmitFunc(1, func(*Request) { t.Fatal("completion on failed station") })
	s.Run()
	if st.Abandoned() != 1 {
		t.Fatalf("abandoned = %d, want 1", st.Abandoned())
	}
}

func TestStationRepair(t *testing.T) {
	s := New()
	st := NewStation(s, "d0", 1)
	st.Fail()
	st.Repair()
	if st.Failed() {
		t.Fatal("repaired station still failed")
	}
	done := false
	st.SubmitFunc(1, func(*Request) { done = true })
	s.Run()
	if !done {
		t.Fatal("repaired station did not serve")
	}
}

func TestStationBusyTimeAndUtilization(t *testing.T) {
	s := New()
	st := NewStation(s, "d0", 10)
	st.SubmitFunc(50, nil) // busy 0..5
	s.Run()
	s.RunUntil(10)
	if !almostEqual(st.BusyTime(), 5, 1e-9) {
		t.Fatalf("busy = %v, want 5", st.BusyTime())
	}
	if !almostEqual(st.Utilization(), 0.5, 1e-9) {
		t.Fatalf("utilization = %v, want 0.5", st.Utilization())
	}
}

func TestStationStalledTimeNotBusy(t *testing.T) {
	s := New()
	st := NewStation(s, "d0", 10)
	st.SubmitFunc(100, nil)
	s.At(3, func() { st.SetMultiplier(0) })
	s.At(7, func() { st.SetMultiplier(1) })
	s.Run()
	// Served 0..3 and 7..14: 10 busy seconds.
	if !almostEqual(st.BusyTime(), 10, 1e-9) {
		t.Fatalf("busy = %v, want 10 (stall must not count)", st.BusyTime())
	}
}

func TestStationInvalidSizePanics(t *testing.T) {
	s := New()
	st := NewStation(s, "d0", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("zero-size request did not panic")
		}
	}()
	st.SubmitFunc(0, nil)
}

func TestStationInvalidRatePanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("zero rate did not panic")
		}
	}()
	NewStation(s, "d0", 0)
}

// TestStationInitInSlab checks that stations set up in place in one slice
// behave as NewStation's do: each element serves its own requests at its
// own rate, and Init rejects an invalid rate as NewStation does.
func TestStationInitInSlab(t *testing.T) {
	s := New()
	slab := make([]Station, 3)
	var done [3]Time
	for i := range slab {
		st := &slab[i]
		st.Init(s, fmt.Sprintf("d%d", i), float64(i+1))
		if st.Name() != fmt.Sprintf("d%d", i) || st.EffectiveRate() != float64(i+1) {
			t.Fatalf("slab station %d: name %q rate %v", i, st.Name(), st.EffectiveRate())
		}
		st.Submit(&Request{Size: 6, OnDone: func(r *Request) { done[i] = r.Finished }})
	}
	ref := NewStation(s, "ref", 2)
	var refDone Time
	ref.Submit(&Request{Size: 6, OnDone: func(r *Request) { refDone = r.Finished }})
	s.Run()
	if done != [3]Time{6, 3, 2} || refDone != done[1] {
		t.Fatalf("slab stations finished at %v (NewStation at rate 2: %v), want [6 3 2]", done, refDone)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Init with a NaN rate did not panic")
		}
	}()
	slab[0].Init(s, "bad", math.NaN())
}

func TestStationInvalidMultiplierPanics(t *testing.T) {
	s := New()
	st := NewStation(s, "d0", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("negative multiplier did not panic")
		}
	}()
	st.SetMultiplier(-0.5)
}

// Property: total completion time of a batch equals total work divided by
// rate, for any positive sizes, when the rate never changes.
func TestStationWorkConservation(t *testing.T) {
	f := func(raw []uint16) bool {
		sizes := make([]float64, 0, len(raw))
		total := 0.0
		for _, v := range raw {
			sz := float64(v%1000) + 1
			sizes = append(sizes, sz)
			total += sz
		}
		if len(sizes) == 0 {
			return true
		}
		s := New()
		st := NewStation(s, "d0", 7)
		for _, sz := range sizes {
			st.SubmitFunc(sz, nil)
		}
		s.Run()
		return almostEqual(s.Now(), total/7, 1e-6*total)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: progress is conserved across arbitrary multiplier schedules —
// the completion time satisfies integral(rate dt) = size.
func TestStationProgressConservedAcrossRateChanges(t *testing.T) {
	f := func(raw []uint8) bool {
		s := New()
		st := NewStation(s, "d0", 1)
		var finished Time = -1
		const size = 100.0
		st.SubmitFunc(size, func(r *Request) { finished = r.Finished })
		// Build a stepwise multiplier schedule from the fuzz input.
		at := 0.0
		type step struct {
			t Time
			m float64
		}
		var steps []step
		for _, v := range raw {
			at += float64(v%7) + 0.5
			m := float64(v%5) / 2 // 0, 0.5, 1, 1.5, 2
			steps = append(steps, step{at, m})
			mult := m
			s.At(at, func() { st.SetMultiplier(mult) })
		}
		// Ensure it eventually finishes.
		end := at + size + 1
		s.At(end, func() { st.SetMultiplier(2) })
		s.Run()
		if finished < 0 {
			return false
		}
		// Integrate the schedule up to the finish time.
		integral := 0.0
		prevT, prevM := 0.0, 1.0
		for _, sp := range steps {
			if sp.t >= finished {
				break
			}
			integral += (sp.t - prevT) * prevM
			prevT, prevM = sp.t, sp.m
		}
		if end < finished {
			integral += (end - prevT) * prevM
			prevT, prevM = end, 2
		}
		integral += (finished - prevT) * prevM
		return almostEqual(integral, size, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
