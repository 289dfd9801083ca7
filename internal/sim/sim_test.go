package sim

import (
	"strings"
	"testing"
	"unsafe"
)

func TestEventOrdering(t *testing.T) {
	s := New()
	var got []int
	s.At(2, func() { got = append(got, 2) })
	s.At(1, func() { got = append(got, 1) })
	s.At(3, func() { got = append(got, 3) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 3 {
		t.Fatalf("Now = %v, want 3", s.Now())
	}
}

func TestTieBreakBySequence(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { got = append(got, i) })
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events ran out of order: %v", got)
		}
	}
}

func TestAfterRelative(t *testing.T) {
	s := New()
	var at Time
	s.At(10, func() {
		s.After(5, func() { at = s.Now() })
	})
	s.Run()
	if at != 15 {
		t.Fatalf("nested After fired at %v, want 15", at)
	}
}

func TestAfterNegativeClampsToNow(t *testing.T) {
	s := New()
	fired := false
	s.At(4, func() {
		s.After(-1, func() { fired = s.Now() == 4 })
	})
	s.Run()
	if !fired {
		t.Fatal("negative After did not fire at current time")
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New()
	s.At(10, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.At(5, func() {})
}

func TestTimerStop(t *testing.T) {
	s := New()
	fired := false
	tm := s.At(1, func() { fired = true })
	if !tm.Pending() {
		t.Fatal("timer not pending after schedule")
	}
	if !tm.Stop() {
		t.Fatal("Stop returned false for pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
	s.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
	if tm.Pending() {
		t.Fatal("stopped timer still pending")
	}
}

func TestStopHaltsRun(t *testing.T) {
	s := New()
	count := 0
	s.At(1, func() { count++; s.Stop() })
	s.At(2, func() { count++ })
	s.Run()
	if count != 1 {
		t.Fatalf("ran %d events after Stop, want 1", count)
	}
	if s.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", s.Pending())
	}
	s.Run() // resume
	if count != 2 {
		t.Fatalf("resume ran %d total, want 2", count)
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	var fired []Time
	for _, at := range []Time{1, 2, 3, 4} {
		at := at
		s.At(at, func() { fired = append(fired, at) })
	}
	s.RunUntil(2.5)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 1 and 2", fired)
	}
	if s.Now() != 2.5 {
		t.Fatalf("Now = %v, want 2.5", s.Now())
	}
	s.RunUntil(10)
	if len(fired) != 4 {
		t.Fatalf("fired %v after full run", fired)
	}
	if s.Now() != 10 {
		t.Fatalf("Now = %v, want 10", s.Now())
	}
}

func TestRunUntilBoundaryInclusive(t *testing.T) {
	s := New()
	fired := false
	s.At(5, func() { fired = true })
	s.RunUntil(5)
	if !fired {
		t.Fatal("event at the horizon did not fire")
	}
}

func TestRunUntilSkipsStoppedEvents(t *testing.T) {
	s := New()
	tm := s.At(1, func() { t.Fatal("stopped event fired") })
	tm.Stop()
	s.RunUntil(2)
	if s.Now() != 2 {
		t.Fatalf("Now = %v, want 2", s.Now())
	}
}

func TestEventsFiredCounts(t *testing.T) {
	s := New()
	for i := 0; i < 7; i++ {
		s.At(Time(i), func() {})
	}
	s.Run()
	if s.EventsFired() != 7 {
		t.Fatalf("EventsFired = %d, want 7", s.EventsFired())
	}
}

func TestCascadingEvents(t *testing.T) {
	// An event chain where each event schedules the next must run to the
	// requested depth.
	s := New()
	depth := 0
	var next func()
	next = func() {
		depth++
		if depth < 1000 {
			s.After(0.001, next)
		}
	}
	s.After(0, next)
	s.Run()
	if depth != 1000 {
		t.Fatalf("chain depth = %d, want 1000", depth)
	}
}

func TestScheduleNilPanics(t *testing.T) {
	s := New()
	s.At(10, func() {})
	s.Run()
	for name, schedule := range map[string]func(){
		"At":    func() { s.At(12.5, nil) },
		"After": func() { s.After(2.5, nil) },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "nil callback") || !strings.Contains(msg, "12.5") {
					t.Fatalf("%s with a nil callback panicked with %q, want one naming the time 12.5", name, msg)
				}
			}()
			schedule()
		}()
	}
	if s.Pending() != 0 {
		t.Fatalf("a refused nil callback left %d events queued", s.Pending())
	}
}

// TestTiesAtManyTimesFireInOrder schedules three tied events at each of
// hundreds of distinct times, latest time first, so the heap holds many
// chains at once: the firing order must still be (time, sequence).
func TestTiesAtManyTimesFireInOrder(t *testing.T) {
	s := New()
	var got []int
	n := 0
	for i := 512; i > 0; i-- {
		for j := 0; j < 3; j++ {
			n++
			id := i*3 + j
			s.At(float64(i), func() { got = append(got, id) })
		}
	}
	s.Run()
	if len(got) != n {
		t.Fatalf("fired %d of %d events", len(got), n)
	}
	for k := 1; k < len(got); k++ {
		if got[k] <= got[k-1] {
			t.Fatalf("firing %d ran event %d after %d", k, got[k], got[k-1])
		}
	}
}

// TestEventIs32Bytes pins the arena slot size: two events share a 64-byte
// cache line.
func TestEventIs32Bytes(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n != 32 {
		t.Fatalf("event is %d bytes, want 32", n)
	}
}
