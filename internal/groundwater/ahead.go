package groundwater

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// solvedStep is one coupling step as TRACE sends it: the packed field
// and the CG iterations its solve took, or why the solve failed.
type solvedStep struct {
	payload      []byte
	cgIterations int
	err          error
}

// lookahead solves a coupled run's steps on a pool of solver
// goroutines, ahead of the rank that sends them. The pool has one
// solver per core (GOMAXPROCS), at most one per step; each owns its
// scratch and field, reuses them for every step it takes, and shares
// the read-only stencil with the others. Solvers take steps in order
// from a shared counter, and a solved step waits in its own channel
// until TRACE asks for it with next, in step order: the bytes sent and
// the virtual times they are sent at do not depend on which solver
// solved a step or when. Rank 0 sends a field as soon as it is solved,
// so at most a few packed fields wait at once, and never more than the
// run has steps.
type lookahead struct {
	st    *stencil
	heads []float64 // inflow head of each step
	right float64   // outflow head, the same every step
	taken atomic.Int64
	done  []chan solvedStep // one per step, buffered: a solver never waits to hand a step over
	stop  chan struct{}
	wg    sync.WaitGroup
}

// solveAhead starts the solvers on the steps whose inflow heads are
// heads. The caller must close the lookahead once it is done with it.
func solveAhead(st *stencil, heads []float64, headRight float64) *lookahead {
	a := &lookahead{st: st, heads: heads, right: headRight,
		done: make([]chan solvedStep, len(heads)), stop: make(chan struct{})}
	for s := range a.done {
		a.done[s] = make(chan solvedStep, 1)
	}
	solvers := min(runtime.GOMAXPROCS(0), len(heads))
	a.wg.Add(solvers)
	for range solvers {
		go a.run()
	}
	return a
}

// run is one solver: it takes the next unsolved step until none is
// left, the lookahead is closed or a solve fails (no later step is
// sent after a failed one).
func (a *lookahead) run() {
	defer a.wg.Done()
	sv := a.st.newSolver()
	for {
		select {
		case <-a.stop:
			return
		default:
		}
		s := int(a.taken.Add(1)) - 1
		if s >= len(a.heads) {
			return
		}
		step := a.solve(sv, s)
		a.done[s] <- step
		if step.err != nil {
			return
		}
	}
}

// solve solves and packs step s on sv. A panic fails the step, as it
// failed the rank when TRACE solved on the rank's own goroutine.
func (a *lookahead) solve(sv *solver, s int) (step solvedStep) {
	defer func() {
		if r := recover(); r != nil {
			step = solvedStep{err: fmt.Errorf("groundwater: solver panicked: %v", r)}
		}
	}()
	field, err := sv.solve(a.heads[s], a.right)
	if err != nil {
		return solvedStep{err: err}
	}
	return solvedStep{payload: packField(field), cgIterations: field.CGIterations}
}

// next waits for step s. Steps are asked for in order, each once.
func (a *lookahead) next(s int) solvedStep { return <-a.done[s] }

// close stops the solvers and waits for them: one mid-solve finishes
// that solve first.
func (a *lookahead) close() {
	close(a.stop)
	a.wg.Wait()
}
