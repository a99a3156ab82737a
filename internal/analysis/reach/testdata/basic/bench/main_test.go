package main

import (
	"testing"

	"fixture/lib"
)

func TestBench(t *testing.T) { lib.BenchTestOnly() }
