package sim

import (
	"fmt"
	"time"
	"unsafe"
)

// Proc is a cooperative simulation process: a goroutine whose blocking
// operations (Sleep, channel sends and receives) advance virtual
// rather than wall-clock time. Exactly one process runs at any
// moment; a process keeps the CPU until it blocks, so sequences of
// ordinary Go code between blocking calls are atomic in virtual time.
type Proc struct {
	k    *Kernel
	name string
	wake chan struct{}
	done bool
}

// Kernel returns the kernel this process belongs to.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now reports the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// Go starts fn as a new simulation process. The process begins running
// at the current virtual time, once the kernel reaches the scheduling
// event (so Go may be called before Run). A panic inside fn is
// propagated out of the kernel's Run/Step.
func (k *Kernel) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{k: k, name: name, wake: make(chan struct{})}
	go func() {
		<-p.wake // wait for the kernel to hand us the virtual CPU
		defer func() {
			p.done = true
			if r := recover(); r != nil {
				k.panicVal = fmt.Errorf("sim: process %q panicked: %v", p.name, r)
			}
			k.ctl <- struct{}{} // return the CPU for good
		}()
		fn(p)
	}()
	k.AtFunc(k.now, resumeProc, unsafe.Pointer(p), nil)
	return p
}

// resumeProc is the closure-free resume trampoline shared by every
// scheduling site below: the process pointer rides in the event record.
func resumeProc(a0, _ unsafe.Pointer) {
	p := (*Proc)(a0)
	p.k.resume(p)
}

// resume hands the virtual CPU to p and blocks until p parks or exits.
// It runs in event-callback context — on the kernel goroutine, or on
// the goroutine of a parked process that is driving the loop inline.
func (k *Kernel) resume(p *Proc) {
	if p.done {
		return
	}
	if d := k.driving; d != nil {
		// A parked process is driving the event loop from its own park.
		if d == p {
			// The fired event resumes the driver itself: just stop
			// driving — the park returns with zero goroutine switches.
			k.driving = nil
			return
		}
		// Hand the virtual CPU to p directly, process to process,
		// without waking the kernel goroutine; the driver stays parked
		// until its own resume fires.
		k.driving = nil
		p.wake <- struct{}{}
		<-d.wake
		return
	}
	p.wake <- struct{}{}
	<-k.ctl
}

// park returns the virtual CPU and blocks until another event resumes
// this process. Inside Run the parking process drives the
// event loop itself (see drive) instead of switching to the kernel
// goroutine; under manual Step the classic two-switch handoff is kept,
// so Step still fires exactly one event per call.
func (p *Proc) park() {
	k := p.k
	if k.running && k.driving == nil {
		k.driving = p
		k.drive(p)
		return
	}
	k.ctl <- struct{}{}
	<-p.wake
}

// drive runs the event loop on the parked process's goroutine until an
// event resumes the process (resume clears k.driving, possibly after
// handing the CPU to another process directly). When the queue drains,
// the CPU goes back to the kernel goroutine and the process waits
// parked, exactly as the classic handoff would have left it.
func (k *Kernel) drive(p *Proc) {
	defer func() {
		if r := recover(); r != nil {
			// An event callback panicked while this goroutine drove the
			// loop. Stash the value for the kernel goroutine to rethrow
			// out of Run and stay parked, as this process would have
			// been had the kernel goroutine hit the same panic.
			k.panicVal = r
			k.driving = nil
			k.ctl <- struct{}{}
			<-p.wake
		}
	}()
	for k.driving == p {
		x := k.next()
		if x == nil {
			k.driving = nil
			k.ctl <- struct{}{}
			<-p.wake
			return
		}
		k.fire(x)
	}
}

// Sleep blocks the process for d of virtual time. Non-positive
// durations yield the CPU to other events scheduled at the current
// instant and continue.
func (p *Proc) Sleep(d time.Duration) {
	p.k.AfterFunc(d, resumeProc, unsafe.Pointer(p), nil)
	p.park()
}

// waitExternal parks the process until resume() is invoked by whatever
// mechanism the caller registered beforehand (a channel's wait list).
// That mechanism must eventually call the returned resume exactly
// once, from kernel context.
func (p *Proc) waitExternal() { p.park() }

// resumeNow schedules p to be resumed at the current virtual instant.
func (p *Proc) resumeNow() {
	p.k.AtFunc(p.k.now, resumeProc, unsafe.Pointer(p), nil)
}
