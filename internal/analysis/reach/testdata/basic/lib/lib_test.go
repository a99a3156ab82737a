package lib

import "testing"

func TestOwn(t *testing.T) {
	OwnTestOnly()
	_ = Square{Side: 2}.Perimeter()
}
