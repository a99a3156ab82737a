package main

import "fixture/lib"

func main() { lib.UsedByBench() }
