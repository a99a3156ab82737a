package other

import (
	"testing"

	l "fixture/lib"
)

func TestOther(t *testing.T) {
	l.UsedByOtherTest()
	s := &l.Square{Side: 1}
	s.Scale(2)
}
