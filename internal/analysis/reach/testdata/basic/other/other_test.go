package other

import (
	"testing"

	l "fixture/lib"
)

// box has a Shrink of its own; calling it reaches nothing in lib.
type box struct{ side float64 }

func (b *box) Shrink() { b.side-- }

func TestOther(t *testing.T) {
	l.UsedByOtherTest()
	s := &l.Square{Side: 1}
	s.Scale(2)
	(&box{side: 1}).Shrink()
}
