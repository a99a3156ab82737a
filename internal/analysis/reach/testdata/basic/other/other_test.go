package other

import (
	"testing"

	l "fixture/lib"
	"fixture/libtest"
)

// box has a Shrink of its own; calling it reaches nothing in lib.
type box struct{ side float64 }

func (b *box) Shrink() { b.side-- }

// A test's calls reach nothing: UsedByOtherTest and Square.Scale stay
// unreached.
func TestOther(t *testing.T) {
	l.UsedByOtherTest()
	s := libtest.NewUnitSquare()
	s.Scale(2)
	(&box{side: 1}).Shrink()
}
