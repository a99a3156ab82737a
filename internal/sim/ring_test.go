package sim

import "testing"

// Cap reports the current slot count (0 or a power of two).
func (r *Ring[T]) Cap() int { return len(r.buf) }

func TestRingFIFOAcrossGrowthAndWraparound(t *testing.T) {
	var r Ring[int]
	if r.Len() != 0 || r.Cap() != 0 {
		t.Fatalf("zero ring Len/Cap = %d/%d", r.Len(), r.Cap())
	}
	next := 0 // next value to push
	want := 0 // next value expected from Pop
	// Cycles of push-13/pop-13 walk the head through several laps of
	// the grown ring; a larger burst forces growth mid-stream.
	for cycle := 0; cycle < 6; cycle++ {
		burst := 13
		if cycle == 3 {
			burst = 40 // grow while head is mid-ring
		}
		for i := 0; i < burst; i++ {
			r.Push(next)
			next++
		}
		for r.Len() > 0 {
			if got := r.Pop(); got != want {
				t.Fatalf("Pop = %d, want %d", got, want)
			}
			want++
		}
	}
	if want != next {
		t.Fatalf("popped %d of %d pushed values", want, next)
	}
	if r.Cap()&(r.Cap()-1) != 0 {
		t.Errorf("capacity %d is not a power of two", r.Cap())
	}
	defer func() {
		if recover() == nil {
			t.Error("Pop of empty ring did not panic")
		}
	}()
	r.Pop()
}
