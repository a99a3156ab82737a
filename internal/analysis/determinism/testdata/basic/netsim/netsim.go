// Package netsim is in the simulation domain: any cost signal and any
// order built from it must be a deterministic function of the model —
// counters and sorted orders, never wall clocks or map order.
package netsim

import (
	"sort"
	"time"
)

// Sampling wall clocks as a load estimate gives a different answer run
// to run.
func costByWallClock(start time.Time) int64 {
	return time.Now().UnixNano() - start.UnixNano() // want `time.Now in simulation/report code`
}

// The deterministic signal: per-node event counters accumulated in
// virtual time.
func costByCounters(work []int64) int64 {
	var c int64
	for _, w := range work {
		c += w
	}
	return c
}

// Ranging a map of node costs while building an order leaks map
// iteration order into the result.
func assignOrder(costs map[int]int64) []int {
	var order []int
	for id := range costs {
		order = append(order, id) // want `append to "order" inside a map range`
	}
	return order
}

// Collect-then-sort erases the map order.
func assignOrderSorted(costs map[int]int64) []int {
	var order []int
	for id := range costs {
		order = append(order, id)
	}
	sort.Ints(order)
	return order
}
