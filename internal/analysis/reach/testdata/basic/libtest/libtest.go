// Package libtest is a test-helper package, as httptest is: its
// exported helpers serve other packages' tests, so only tests call them.
package libtest

import "fixture/lib"

// NewUnitSquare is called only from a _test.go file.
func NewUnitSquare() *lib.Square { return lib.NewSquare(1) }
