package p

import "testing"

func TestF(t *testing.T) { var s string = F() }
