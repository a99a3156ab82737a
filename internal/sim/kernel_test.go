package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestEventOrdering(t *testing.T) {
	k := NewKernel()
	var got []int
	k.After(3*time.Second, func() { got = append(got, 3) })
	k.After(1*time.Second, func() { got = append(got, 1) })
	k.After(2*time.Second, func() { got = append(got, 2) })
	end := k.Run()
	if want := Time(3 * time.Second); end != want {
		t.Errorf("Run ended at %v, want %v", end, want)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("events fired in order %v, want [1 2 3]", got)
	}
}

func TestEqualTimestampsFIFO(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(Time(time.Second), func() { got = append(got, i) })
	}
	k.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("equal-time events fired out of scheduling order: %v", got)
		}
	}
}

func TestCancel(t *testing.T) {
	k := NewKernel()
	fired := false
	e := k.After(time.Second, func() { fired = true })
	k.Cancel(e)
	k.Cancel(e) // double-cancel is a no-op
	k.Run()
	if fired {
		t.Error("cancelled event fired")
	}
	if k.Now() != 0 {
		t.Errorf("clock advanced to %v with no live events", k.Now())
	}
}

func TestRunUntil(t *testing.T) {
	k := NewKernel()
	count := 0
	for i := 1; i <= 5; i++ {
		k.At(Time(i)*Time(time.Second), func() { count++ })
	}
	k.RunUntil(Time(3 * time.Second))
	if count != 3 {
		t.Errorf("RunUntil(3s) fired %d events, want 3", count)
	}
	if k.Now() != Time(3*time.Second) {
		t.Errorf("clock at %v, want 3s", k.Now())
	}
	k.Run()
	if count != 5 {
		t.Errorf("Run fired %d events total, want 5", count)
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	k := NewKernel()
	k.RunUntil(Time(7 * time.Second))
	if k.Now() != Time(7*time.Second) {
		t.Errorf("idle RunUntil left clock at %v, want 7s", k.Now())
	}
}

func TestStop(t *testing.T) {
	k := NewKernel()
	count := 0
	for i := 1; i <= 5; i++ {
		k.At(Time(i), func() {
			count++
			if count == 2 {
				k.Stop()
			}
		})
	}
	k.Run()
	if count != 2 {
		t.Errorf("Stop after 2 events, but %d fired", count)
	}
	k.Run() // resume
	if count != 5 {
		t.Errorf("resumed Run fired %d events total, want 5", count)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	k := NewKernel()
	k.After(time.Second, func() {})
	k.Run()
	defer func() {
		if recover() == nil {
			t.Error("At in the past did not panic")
		}
	}()
	k.At(0, func() {})
}

func TestNegativeAfterClampsToNow(t *testing.T) {
	k := NewKernel()
	fired := false
	k.After(-5*time.Second, func() { fired = true })
	k.Run()
	if !fired || k.Now() != 0 {
		t.Errorf("negative After: fired=%v now=%v, want true, 0", fired, k.Now())
	}
}

// Property: for arbitrary sets of non-negative delays, events fire in
// nondecreasing time order and the clock ends at the max delay.
func TestEventOrderProperty(t *testing.T) {
	f := func(delays []uint32) bool {
		k := NewKernel()
		var fireTimes []Time
		var max Time
		for _, d := range delays {
			at := Time(d)
			if at > max {
				max = at
			}
			k.At(at, func() { fireTimes = append(fireTimes, k.Now()) })
		}
		k.Run()
		if len(fireTimes) != len(delays) {
			return false
		}
		if !sort.SliceIsSorted(fireTimes, func(i, j int) bool { return fireTimes[i] < fireTimes[j] }) {
			return false
		}
		return len(delays) == 0 || k.Now() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Determinism: the same randomized schedule produces the same firing
// sequence on every run.
func TestDeterminism(t *testing.T) {
	run := func(seed int64) []int {
		rng := rand.New(rand.NewSource(seed))
		k := NewKernel()
		var got []int
		for i := 0; i < 500; i++ {
			i := i
			k.At(Time(rng.Intn(100)), func() { got = append(got, i) })
		}
		k.Run()
		return got
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatal("different lengths")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestDurationHelper(t *testing.T) {
	for _, c := range []struct {
		sec  float64
		want time.Duration
	}{
		{1.5, 1500 * time.Millisecond},
		{-1, 0},
		{1e300, 1 << 62},
		{math.Inf(1), 1 << 62},
		{math.Inf(-1), 0},
		{math.Copysign(0, -1), 0},
		{math.NaN(), 0},
	} {
		if d := Duration(c.sec); d != c.want {
			t.Errorf("Duration(%v) = %v, want %v", c.sec, d, c.want)
		}
	}
	// NaN used to convert to math.MinInt64 ns on amd64 and make this
	// schedule panic "before now".
	k := NewKernel()
	k.At(k.Now().Add(Duration(math.NaN())), func() {})
	k.Run()
}

func TestTimeHelpers(t *testing.T) {
	tm := Time(2500 * time.Millisecond)
	if s := tm.Seconds(); s != 2.5 {
		t.Errorf("Seconds = %v", s)
	}
	if u := tm.Add(500 * time.Millisecond); u != Time(3*time.Second) {
		t.Errorf("Add = %v", u)
	}
	if d := tm.Sub(Time(time.Second)); d != 1500*time.Millisecond {
		t.Errorf("Sub = %v", d)
	}
	if tm.String() == "" {
		t.Error("empty String()")
	}
}

// Fired and cancelled event records are recycled through the pool; a
// handle kept past its event's lifetime must become inert rather than
// cancel whatever schedule reuses the record.
func TestStaleHandleDoesNotCancelRecycledEvent(t *testing.T) {
	k := NewKernel()
	stale := k.After(time.Second, func() {})
	k.Run() // fires; the record returns to the pool

	fired := false
	fresh := k.After(time.Second, func() { fired = true })
	if fresh.e != stale.e {
		t.Fatalf("pool did not recycle the record (got %p, want %p)", fresh.e, stale.e)
	}
	k.Cancel(stale) // refers to the fired schedule, must be a no-op
	k.Run()
	if !fired {
		t.Error("stale handle cancelled a recycled event")
	}
	if stale.Pending() || stale.When() != 0 {
		t.Errorf("stale handle still reports pending=%v when=%v", stale.Pending(), stale.When())
	}
}

func TestZeroEventCancelIsNoOp(t *testing.T) {
	k := NewKernel()
	k.Cancel(Event{}) // must not panic
	var ev Event
	if ev.Pending() {
		t.Error("zero Event reports pending")
	}
}

// Cancelling from the middle of a deep queue must preserve heap order.
func TestCancelDeepQueue(t *testing.T) {
	k := NewKernel()
	var evs []Event
	for i := 0; i < 1000; i++ {
		evs = append(evs, k.At(Time(i), func() {}))
	}
	var got []Time
	for i := 0; i < 1000; i += 3 {
		k.Cancel(evs[i])
	}
	for k.Pending() > 0 {
		prev := k.Now()
		k.Step()
		if k.Now() < prev {
			t.Fatal("clock ran backwards after mid-queue cancels")
		}
		got = append(got, k.Now())
	}
	if len(got) != 1000-334 {
		t.Errorf("fired %d events, want %d", len(got), 1000-334)
	}
}

// AtFunc/AfterFunc must behave like At/After, passing both arguments
// through the event record.
func TestAtFunc(t *testing.T) {
	k := NewKernel()
	type box struct{ v int }
	a, b := &box{1}, &box{2}
	var got []int
	k.AfterFunc(2*time.Second, func(a0, a1 unsafe.Pointer) {
		got = append(got, (*box)(a0).v, (*box)(a1).v)
	}, unsafe.Pointer(a), unsafe.Pointer(b))
	ev := k.AtFunc(Time(time.Second), func(a0, _ unsafe.Pointer) {
		got = append(got, (*box)(a0).v*10)
	}, unsafe.Pointer(b), nil)
	if ev.When() != Time(time.Second) || !ev.Pending() {
		t.Errorf("handle reports when=%v pending=%v", ev.When(), ev.Pending())
	}
	k.Run()
	if len(got) != 3 || got[0] != 20 || got[1] != 1 || got[2] != 2 {
		t.Errorf("AtFunc callbacks produced %v, want [20 1 2]", got)
	}
}

// A reserved key can be materialized only while its turn has not come:
// an event keyed (0, 1) materialized at (0, 2) would fire out of order,
// so Materialize panics instead.
func TestMaterializePassedKeyPanics(t *testing.T) {
	k := NewKernel()
	seq := k.Reserve()
	k.At(0, func() {
		if !k.Passed(0, seq) {
			t.Errorf("key (0, %d) has not passed at (0, %d)", seq, seq+1)
		}
		defer func() {
			if recover() == nil {
				t.Error("Materialize of a passed key did not panic")
			}
		}()
		k.Materialize(0, seq, func(a0, a1 unsafe.Pointer) {}, nil, nil)
	})
	k.Run()
}

// The heap shuffles 16-byte entries (four siblings to a cache line) and
// the freelist whole records, which must stay within one 64-byte cache
// line. Both are measured properties of the kernel, not accidents: this
// pins them against field additions quietly growing either.
func TestEventRecordFitsOneCacheLine(t *testing.T) {
	if sz := unsafe.Sizeof(event{}); sz > 64 {
		t.Errorf("sim.event is %d bytes, must stay <= 64 (one cache line)", sz)
	}
	if sz := unsafe.Sizeof(entry{}); sz != 16 {
		t.Errorf("sim.entry is %d bytes, want 16 (a time and a pointer)", sz)
	}
}

// Time.Add must saturate at the int64 extremes instead of wrapping:
// Duration already saturates huge second counts at 1<<62 ns, and a
// wrapped negative timestamp makes Kernel.At panic "before now".
func TestTimeAddSaturates(t *testing.T) {
	huge := Duration(1e300) // saturates at 1<<62 ns
	tm := Time(huge).Add(huge)
	if tm != Time(math.MaxInt64) {
		t.Errorf("Add overflow = %v, want MaxInt64", int64(tm))
	}
	if got := Time(math.MaxInt64).Add(time.Nanosecond); got != Time(math.MaxInt64) {
		t.Errorf("MaxInt64 + 1ns = %v, want saturation", int64(got))
	}
	if got := Time(math.MinInt64).Add(-time.Nanosecond); got != Time(math.MinInt64) {
		t.Errorf("MinInt64 - 1ns = %v, want saturation", int64(got))
	}
	// A kernel far in the future must accept saturated schedules
	// instead of panicking "scheduled before now".
	k := NewKernel()
	k.At(Time(huge), func() {})
	k.Run()
	fired := false
	k.At(k.Now().Add(huge), func() { fired = true })
	k.Run()
	if !fired {
		t.Error("saturated schedule did not fire")
	}
}
