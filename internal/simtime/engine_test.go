package simtime

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// schedule runs the closure fn at the given instant as an ordinary
// ScheduleCall event.
func schedule(e *Engine, at Time, fn EventFunc) EventID { return e.ScheduleCall(at, callClosure, fn) }

func callClosure(now Time, arg any) { arg.(EventFunc)(now) }

func TestTimeConversions(t *testing.T) {
	tests := []struct {
		name string
		got  Duration
		want Duration
	}{
		{"one second", FromSeconds(1), Second},
		{"half second", FromSeconds(0.5), 500 * Millisecond},
		{"one milli", FromMillis(1), Millisecond},
		{"fractional milli", FromMillis(12.1), 12100 * Microsecond},
		{"rounding", FromMillis(0.0004), 0},
		{"rounding up", FromMillis(0.0006), 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.got != tt.want {
				t.Errorf("got %d, want %d", tt.got, tt.want)
			}
		})
	}
}

func TestTimeArithmetic(t *testing.T) {
	t0 := At(1.0)
	t1 := t0.Add(250 * Millisecond)
	if got := t1.Sub(t0); got != 250*Millisecond {
		t.Errorf("Sub = %v, want 250ms", got)
	}
	if got := t1.Seconds(); got != 1.25 {
		t.Errorf("Seconds = %v, want 1.25", got)
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	schedule(e, At(3), func(Time) { order = append(order, 3) })
	schedule(e, At(1), func(Time) { order = append(order, 1) })
	schedule(e, At(2), func(Time) { order = append(order, 2) })
	e.Run(At(10))
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != At(10) {
		t.Errorf("Now = %v, want 10s after drain", e.Now())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		schedule(e, At(1), func(Time) { order = append(order, i) })
	}
	e.Run(At(2))
	for i := 0; i < 10; i++ {
		if order[i] != i {
			t.Fatalf("simultaneous events ran out of FIFO order: %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick EventFunc
	tick = func(now Time) {
		count++
		if count < 5 {
			schedule(e, e.Now().Add(Second), tick)
		}
	}
	schedule(e, 0, tick)
	e.Run(At(100))
	if count != 5 {
		t.Errorf("count = %d, want 5", count)
	}
	if e.Now() != At(100) {
		t.Errorf("Now = %v, want 100s", e.Now())
	}
}

func TestEngineRunUntilBoundary(t *testing.T) {
	e := NewEngine()
	ran := false
	schedule(e, At(5), func(Time) { ran = true })
	e.Run(At(4))
	if ran {
		t.Fatal("event at 5s ran with horizon 4s")
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	e.Run(At(5)) // inclusive boundary
	if !ran {
		t.Fatal("event at 5s did not run with horizon 5s")
	}
}

// TestEngineRunInclusiveBound pins Run's horizon as inclusive down to the
// microsecond, up to the last representable instant: an event at exactly
// until runs, one a microsecond later stays pending.
func TestEngineRunInclusiveBound(t *testing.T) {
	e := NewEngine()
	var seen []Time
	record := func(now Time, _ any) { seen = append(seen, now) }
	for _, at := range []Time{5, 6, math.MaxInt64 - 1, math.MaxInt64} {
		e.ScheduleCall(at, record, nil)
	}
	for _, step := range []struct {
		until   Time
		ran     int
		pending int
	}{
		{4, 0, 4},
		{5, 1, 3},
		{math.MaxInt64 - 2, 2, 2},
		{math.MaxInt64 - 1, 3, 1},
		{math.MaxInt64, 4, 0},
	} {
		e.Run(step.until)
		if len(seen) != step.ran || e.Pending() != step.pending || e.Now() != step.until {
			t.Fatalf("Run(%d): ran %v, pending %d, now %d; want %d ran, %d pending, now %d",
				step.until, seen, e.Pending(), e.Now(), step.ran, step.pending, step.until)
		}
	}
	if seen[3] != math.MaxInt64 {
		t.Fatalf("last event ran at %d, want %d", seen[3], Time(math.MaxInt64))
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	ran := false
	id := schedule(e, At(1), func(Time) { ran = true })
	if !e.Cancel(id) {
		t.Fatal("Cancel reported not pending")
	}
	if e.Cancel(id) {
		t.Fatal("double Cancel reported pending")
	}
	e.Run(At(2))
	if ran {
		t.Fatal("cancelled event ran")
	}
}

func TestEngineCancelMiddleOfHeap(t *testing.T) {
	e := NewEngine()
	var order []int
	ids := make([]EventID, 0, 5)
	for i := 1; i <= 5; i++ {
		i := i
		ids = append(ids, schedule(e, At(float64(i)), func(Time) { order = append(order, i) }))
	}
	e.Cancel(ids[2]) // the event at 3s
	e.Run(At(10))
	want := []int{1, 2, 4, 5}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 5; i++ {
		schedule(e, At(float64(i)), func(Time) {
			count++
			if count == 2 {
				e.Stop()
			}
		})
	}
	e.Run(At(10))
	if count != 2 {
		t.Errorf("count = %d, want 2 after Stop", count)
	}
	if e.Now() != At(2) {
		t.Errorf("Now() = %v after Stop at t=2s, want the stopping instant, not the full window", e.Now())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	schedule(e, At(5), func(Time) {})
	e.Run(At(5))
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	schedule(e, At(1), func(Time) {})
}

func TestStepObservesIntermediateState(t *testing.T) {
	e := NewEngine()
	var seen []Time
	schedule(e, At(1), func(now Time) { seen = append(seen, now) })
	schedule(e, At(2), func(now Time) { seen = append(seen, now) })
	if !e.Step() {
		t.Fatal("Step = false with pending events")
	}
	if len(seen) != 1 || seen[0] != At(1) {
		t.Fatalf("after one step seen = %v", seen)
	}
	if !e.Step() || e.Step() {
		t.Fatal("Step sequencing wrong")
	}
}

// TestPreBandOrdersFirst pins the pre-band: at one instant every
// ScheduleCallPre event runs before every ordinary event, whatever the
// scheduling order, and each band stays FIFO — including across a Cancel
// that pulls an entry out of the middle of the heap.
func TestPreBandOrdersFirst(t *testing.T) {
	e := NewEngine()
	var order []int
	labels := make([]int, 8)
	for i := range labels {
		labels[i] = i
	}
	record := func(_ Time, arg any) { order = append(order, *arg.(*int)) }
	e.ScheduleCall(At(1), record, &labels[4])
	e.ScheduleCall(At(2), record, &labels[7])
	e.ScheduleCall(At(1), record, &labels[5])
	e.ScheduleCallPre(At(1), record, &labels[0])
	gone := e.ScheduleCall(At(1), record, &labels[6])
	e.ScheduleCallPre(At(1), record, &labels[1])
	e.ScheduleCall(At(1), record, &labels[6])
	e.ScheduleCallPre(At(2), record, &labels[3])
	e.ScheduleCallPre(At(1), record, &labels[2])
	if !e.Cancel(gone) {
		t.Fatal("Cancel of a pending event = false")
	}
	e.Run(At(3))
	want := []int{0, 1, 2, 4, 5, 6, 3, 7}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestRandUniformBounds(t *testing.T) {
	r := NewRand(1)
	if err := quick.Check(func(loRaw, span uint16) bool {
		lo := float64(loRaw)
		hi := lo + float64(span) + 1
		v := r.Uniform(lo, hi)
		return v >= lo && v < hi
	}, nil); err != nil {
		t.Error(err)
	}
}

// Property: events always execute in non-decreasing timestamp order no
// matter the insertion order.
func TestEngineOrderProperty(t *testing.T) {
	if err := quick.Check(func(offsets []uint16) bool {
		e := NewEngine()
		var times []Time
		for _, off := range offsets {
			at := Time(off)
			schedule(e, at, func(now Time) { times = append(times, now) })
		}
		e.Run(Never - 1)
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return len(times) == len(offsets)
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEvery(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	e.Every(Second, func(now Time) { ticks = append(ticks, now) })
	e.Run(At(5))
	if len(ticks) != 5 {
		t.Fatalf("ticks = %d, want 5", len(ticks))
	}
	for i, tk := range ticks {
		if tk != At(float64(i+1)) {
			t.Errorf("tick %d at %v, want %vs", i, tk, i+1)
		}
	}
}

func TestEveryStop(t *testing.T) {
	e := NewEngine()
	count := 0
	var stop func()
	stop = e.Every(Second, func(now Time) {
		count++
		if count == 3 {
			stop()
		}
	})
	e.Run(At(10))
	if count != 3 {
		t.Errorf("count = %d, want 3 after stop", count)
	}
}

func TestEveryStopBeforeFirstTick(t *testing.T) {
	e := NewEngine()
	ran := false
	stop := e.Every(Second, func(Time) { ran = true })
	stop()
	e.Run(At(5))
	if ran {
		t.Error("stopped ticker still fired")
	}
}

func TestEveryInvalidPeriodPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive period did not panic")
		}
	}()
	e.Every(0, func(Time) {})
}
