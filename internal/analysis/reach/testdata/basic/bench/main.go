package main

import "fixture/lib"

func main() {
	lib.UsedByBench()
	_ = lib.NewSquare(2).Diagonal()
}
