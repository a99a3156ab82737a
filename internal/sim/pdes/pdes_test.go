package pdes

import (
	"testing"
	"time"
	"unsafe"

	"repro/internal/sim"
)

// TestTwoMemberPingPong bounces a token between two kernels through a
// pair of queues and checks that every hop lands exactly one lookahead
// after the previous one — the conservative window never lets a kernel
// see a message late.
func TestTwoMemberPingPong(t *testing.T) {
	ka, kb := sim.NewKernel(), sim.NewKernel()
	const la = time.Millisecond
	const hops = 20

	var atA, atB []sim.Time
	var qAtoB, qBtoA *Queue
	qAtoB = NewQueue(1, 0, la, func(_ unsafe.Pointer, at sim.Time) {
		kb.At(at, func() {
			atB = append(atB, kb.Now())
			if len(atA)+len(atB) < hops {
				qBtoA.Push(nil, kb.Now().Add(la))
			}
		})
	})
	qBtoA = NewQueue(1, 1, la, func(_ unsafe.Pointer, at sim.Time) {
		ka.At(at, func() {
			atA = append(atA, ka.Now())
			if len(atA)+len(atB) < hops {
				qAtoB.Push(nil, ka.Now().Add(la))
			}
		})
	})

	g := NewGroup([]*Member{
		{K: ka, In: []*Queue{qBtoA}},
		{K: kb, In: []*Queue{qAtoB}},
	})
	// Kick off: the first event on A pushes the token toward B.
	ka.At(0, func() { qAtoB.Push(nil, sim.Time(la)) })
	g.Run()

	if len(atA)+len(atB) != hops {
		t.Fatalf("got %d+%d hops, want %d", len(atA), len(atB), hops)
	}
	for i, at := range atB {
		want := sim.Time(la) * sim.Time(2*i+1)
		if at != want {
			t.Fatalf("hop %d on B at %v, want %v", i, at, want)
		}
	}
	for i, at := range atA {
		want := sim.Time(la) * sim.Time(2*i+2)
		if at != want {
			t.Fatalf("hop %d on A at %v, want %v", i, at, want)
		}
	}
	st := g.Stats()
	if st.Rounds == 0 {
		t.Fatal("no rounds recorded")
	}
	if st.NullMessages != 2*st.Rounds {
		t.Fatalf("NullMessages = %d, want 2 per round over %d rounds", st.NullMessages, st.Rounds)
	}
	if g.Pending() != 0 {
		t.Fatalf("pending events after Run: %d", g.Pending())
	}
}

// TestGroupRerun reuses one group for a second batch of events — the
// quiescent-between-Runs contract drivers like tcpsim.WaitAll rely on.
func TestGroupRerun(t *testing.T) {
	ka, kb := sim.NewKernel(), sim.NewKernel()
	const la = time.Millisecond
	count := 0
	qAtoB := NewQueue(1, 0, la, func(_ unsafe.Pointer, at sim.Time) {
		kb.At(at, func() { count++ })
	})
	g := NewGroup([]*Member{
		{K: ka},
		{K: kb, In: []*Queue{qAtoB}},
	})
	for run := 1; run <= 3; run++ {
		ka.At(ka.Now().Add(la), func() { qAtoB.Push(nil, ka.Now().Add(la)) })
		g.Run()
		if count != run {
			t.Fatalf("after run %d: count = %d", run, count)
		}
	}
}

// TestSingleMemberRunsInline checks the degenerate one-partition group
// is just Kernel.Run.
func TestSingleMemberRunsInline(t *testing.T) {
	k := sim.NewKernel()
	fired := false
	k.At(5, func() { fired = true })
	g := NewGroup([]*Member{{K: k}})
	g.Run()
	if !fired || k.Now() != 5 {
		t.Fatalf("fired=%v now=%v", fired, k.Now())
	}
}

func expectPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: no panic", name)
		}
	}()
	f()
}

func TestNewGroupValidation(t *testing.T) {
	expectPanic(t, "empty", func() { NewGroup(nil) })
	expectPanic(t, "edge from outside group", func() {
		nop := func(_ unsafe.Pointer, _ sim.Time) {}
		NewGroup([]*Member{
			{K: sim.NewKernel(), In: []*Queue{NewQueue(1, 7, time.Millisecond, nop)}},
			{K: sim.NewKernel(), In: []*Queue{NewQueue(1, 1, time.Millisecond, nop)}},
		})
	})
}

// TestNoCutEdgesDrainInOneRound pins the degenerate table: members no
// cut edge reaches have infinite horizons, so each drains its whole heap
// in the first round and the second round terminates, resyncing every
// clock to the globally last event.
func TestNoCutEdgesDrainInOneRound(t *testing.T) {
	ka, kb := sim.NewKernel(), sim.NewKernel()
	fired := 0
	for j := 1; j <= 10; j++ {
		ka.At(sim.Time(j), func() { fired++ })
	}
	kb.At(100, func() {})
	g := NewGroup([]*Member{{K: ka}, {K: kb}})
	g.Run()
	if fired != 10 || ka.Now() != 100 || kb.Now() != 100 {
		t.Fatalf("fired=%d clocks=%v/%v, want 10 and both at 100", fired, ka.Now(), kb.Now())
	}
	if st := g.Stats(); st.Rounds != 2 {
		t.Fatalf("took %d rounds, want 2 (one firing, one terminating)", st.Rounds)
	}
}

// TestQueueFIFO pins the drain order: messages leave a queue in push
// order, which keeps equal-timestamp injections deterministic.
func TestQueueFIFO(t *testing.T) {
	var got []sim.Time
	q := NewQueue(2, 0, time.Millisecond, func(_ unsafe.Pointer, at sim.Time) { got = append(got, at) })
	q.Push(nil, 3)
	q.Push(nil, 1) // later push, earlier stamp: still drains second
	q.Push(nil, 2)
	q.drain()
	if len(got) != 3 || got[0] != 3 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("drain order %v, want [3 1 2]", got)
	}
	if len(q.items) != 0 || cap(q.items) < 3 {
		t.Fatalf("queue not reset keeping buffer: len=%d cap=%d", len(q.items), cap(q.items))
	}
}

// chain3 builds the unequal-latency 3-member line A - B - C used by the
// per-pair tests: A and B sync at laAB, B and C at laBC, with queues in
// both directions per pair. deliver hooks schedule a plain callback at
// the stamped time.
func chain3(t *testing.T, laAB, laBC time.Duration) (ks [3]*sim.Kernel, qs map[string]*Queue, members []*Member) {
	t.Helper()
	ks = [3]*sim.Kernel{sim.NewKernel(), sim.NewKernel(), sim.NewKernel()}
	qs = map[string]*Queue{}
	mk := func(from, to int, la time.Duration) *Queue {
		k := ks[to]
		return NewQueue(4, from, la, func(_ unsafe.Pointer, at sim.Time) {
			k.At(at, func() {})
		})
	}
	qs["AB"], qs["BA"] = mk(0, 1, laAB), mk(1, 0, laAB)
	qs["BC"], qs["CB"] = mk(1, 2, laBC), mk(2, 1, laBC)
	members = []*Member{
		{K: ks[0], In: []*Queue{qs["BA"]}},
		{K: ks[1], In: []*Queue{qs["AB"], qs["CB"]}},
		{K: ks[2], In: []*Queue{qs["BC"]}},
	}
	return ks, qs, members
}

// TestPerPairFewerRounds pins the point of per-pair lookahead: on a
// chain whose A-B edge is 100x shorter than its B-C edge, member C is
// 100 ms of virtual time away from the tight pair, so its horizon is
// ~100 ms per round. The comparison is the same chain with every edge
// set to the minimum latency — what one global window would
// synchronize on. With dense local work on C (events every 500 us for
// 100 ms) the uniform chain gives C at most its 2 ms self-cycle per
// round, a round per two milliseconds of C's progress; with its true
// latency C drains in the first round and only the A<->B ping-pong
// sets the round count. Clocks and event counts must be identical
// either way.
func TestPerPairFewerRounds(t *testing.T) {
	const laAB = time.Millisecond

	run := func(laBC time.Duration) (st Stats, clocks [3]sim.Time) {
		ks, qs, members := chain3(t, laAB, laBC)
		hops := 0
		var qAB, qBA *Queue = qs["AB"], qs["BA"]
		// Rebuild A<->B deliver hooks to bounce a token 6 times.
		*qAB = *NewQueue(4, 0, laAB, func(_ unsafe.Pointer, at sim.Time) {
			ks[1].At(at, func() {
				hops++
				if hops < 6 {
					qBA.Push(nil, ks[1].Now().Add(laAB))
				}
			})
		})
		*qBA = *NewQueue(4, 1, laAB, func(_ unsafe.Pointer, at sim.Time) {
			ks[0].At(at, func() {
				hops++
				if hops < 6 {
					qAB.Push(nil, ks[0].Now().Add(laAB))
				}
			})
		})
		g := NewGroup(members)
		ks[0].At(0, func() { qAB.Push(nil, sim.Time(laAB)) })
		for j := 1; j <= 200; j++ {
			ks[2].At(sim.Time(j)*sim.Time(500*time.Microsecond), func() {})
		}
		g.Run()
		return g.Stats(), [3]sim.Time{ks[0].Now(), ks[1].Now(), ks[2].Now()}
	}

	uStats, uClocks := run(laAB)
	pStats, pClocks := run(100 * time.Millisecond)
	if uClocks != pClocks {
		t.Fatalf("clocks diverged: uniform %v, true latencies %v", uClocks, pClocks)
	}
	for i := range uStats.Events {
		if uStats.Events[i] != pStats.Events[i] {
			t.Fatalf("event counts diverged: uniform %v, true latencies %v", uStats.Events, pStats.Events)
		}
	}
	if pStats.Rounds*5 > uStats.Rounds {
		t.Fatalf("true-latency rounds %d, want at least 5x below uniform-minimum %d", pStats.Rounds, uStats.Rounds)
	}
}

// TestPerPairTerminationResync is the regression for the termination
// path with unequal cut latencies: all kernels must leave Run at the
// same virtual time — the globally last event — even when per-pair
// horizons let the far member run dry many windows ahead of the tight
// pair. The resync target is the same global maximum either way.
func TestPerPairTerminationResync(t *testing.T) {
	const laAB = time.Millisecond
	const laBC = 100 * time.Millisecond
	ks, _, members := chain3(t, laAB, laBC)
	last := sim.Time(50 * time.Millisecond)
	ks[0].At(sim.Time(laAB), func() {})
	ks[2].At(last, func() {})
	g := NewGroup(members)
	g.Run()
	for i, k := range ks {
		if k.Now() != last {
			t.Fatalf("kernel %d at %v after Run, want resync to global last %v", i, k.Now(), last)
		}
	}
	if st := g.Stats(); st.Rounds > 3 {
		t.Fatalf("per-pair horizons should finish this in <=3 rounds, took %d", st.Rounds)
	}
}

// TestPerPairStats checks the per-member event counts come from the
// kernels' fired counters.
func TestPerPairStats(t *testing.T) {
	ks, qs, members := chain3(t, time.Millisecond, 2*time.Millisecond)
	g := NewGroup(members)
	ks[0].At(0, func() { qs["AB"].Push(nil, sim.Time(time.Millisecond)) })
	g.Run()
	st := g.Stats()
	if len(st.Events) != 3 {
		t.Fatalf("Events length %d, want 3", len(st.Events))
	}
	if st.Events[0] != 1 || st.Events[1] != 1 {
		t.Fatalf("Events = %v, want one event each on A and B", st.Events)
	}
	for i, k := range ks {
		if st.Events[i] != k.Fired() {
			t.Fatalf("Events[%d] = %d, kernel fired %d", i, st.Events[i], k.Fired())
		}
	}
}

func TestNewQueueValidation(t *testing.T) {
	nop := func(_ unsafe.Pointer, _ sim.Time) {}
	expectPanic(t, "negative from", func() { NewQueue(1, -1, time.Millisecond, nop) })
	expectPanic(t, "zero lookahead", func() { NewQueue(1, 0, 0, nop) })
}
