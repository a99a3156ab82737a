package p_test

import (
	"testing"

	"fixture/p"
)

func TestX(t *testing.T) { _ = p.F() }
