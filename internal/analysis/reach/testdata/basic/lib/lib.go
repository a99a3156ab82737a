package lib

import (
	"fmt"
	"math"
)

func Unused() {} // want `Unused is unreached: no non-test code or bench/ uses it`

func OwnTestOnly() {} // want `OwnTestOnly is unreached: no non-test code or bench/ uses it`

func UsedByCode() {}

func UsedByOtherTest() {} // want `UsedByOtherTest is unreached: no non-test code or bench/ uses it`

func UsedByBench() {}

func BenchTestOnly() {} // want `BenchTestOnly is unreached: no non-test code or bench/ uses it`

// Recursive calls itself, which does not count.
func Recursive(n int) int { // want `Recursive is unreached`
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

//gtwvet:ignore reach kept as the documented extension point
func Waived() {}

func helper() {}

// Shape is implemented by Square; an interface call reaches Area
// without naming it.
type Shape interface{ Area() float64 }

type Square struct{ Side float64 }

func (s Square) Area() float64 { return s.Side * s.Side }

// String implements fmt.Stringer, an interface of an imported package.
func (s Square) String() string { return "square" }

func (s Square) Perimeter() float64 { return 4 * s.Side } // want `Square.Perimeter is unreached: no non-test code or bench/ uses it`

func (s *Square) Grow() { s.Side++ } // want `Square.Grow is unreached: no non-test code or bench/ uses it`

func (s *Square) Scale(f float64) { s.Side *= f } // want `Square.Scale is unreached: no non-test code or bench/ uses it`

// Shrink shares its name with a method another package's test calls on
// a type of its own; that call does not reach this one.
func (s *Square) Shrink() { s.Side-- } // want `Square.Shrink is unreached: no non-test code or bench/ uses it`

// NewSquare and Diagonal are reached by bench's typed call.
func NewSquare(side float64) *Square { return &Square{Side: side} }

func (s *Square) Diagonal() float64 { return s.Side * math.Sqrt2 }

func Total(shapes []Shape) (sum float64) {
	for _, s := range shapes {
		sum += s.Area()
	}
	helper()
	return sum
}

// Describe prints through fmt, which finds String by fmt.Stringer.
func Describe(s Shape) string { return fmt.Sprint(s) }
