package sim

import (
	"fmt"
	"time"
	"unsafe"
)

// refKernel is the kernel as it was before the vacant root, lanes and
// reserved keys: one 4-ary heap holding every pending event, popped and
// re-sifted per Step. It is copied verbatim (types renamed, After/Go's
// doc comments dropped) and kept only as the reference FuzzKernelOrder
// compares Kernel against; nothing outside the tests runs it.
type refKernel struct {
	now      Time
	seq      uint64
	heap     []*refRecord
	free     []*refRecord
	ctl      chan struct{}
	procs    int
	panicVal any

	driving *refProc
	running bool

	fired int64
}

type refRecord struct {
	at     Time
	seq    uint64
	gen    uint64
	fn     func()
	fn2    func(a0, a1 unsafe.Pointer)
	a0, a1 unsafe.Pointer
	index  int32
}

type refHandle struct {
	e   *refRecord
	gen uint64
}

func (ev refHandle) When() Time {
	if ev.e == nil || ev.e.gen != ev.gen {
		return 0
	}
	return ev.e.at
}

func (ev refHandle) Pending() bool {
	return ev.e != nil && ev.e.gen == ev.gen
}

func newRefKernel() *refKernel {
	return &refKernel{ctl: make(chan struct{})}
}

func (k *refKernel) Now() Time { return k.now }

func (k *refKernel) alloc(t Time) *refRecord {
	if t < k.now {
		panic(fmt.Sprintf("sim: event scheduled at %v before now %v", t, k.now))
	}
	var e *refRecord
	if n := len(k.free); n > 0 {
		e = k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
	} else {
		e = &refRecord{}
	}
	k.seq++
	e.at = t
	e.seq = k.seq
	return e
}

func (k *refKernel) release(e *refRecord) {
	e.gen++
	e.fn = nil
	e.fn2 = nil
	e.a0 = nil
	e.a1 = nil
	e.index = -1
	k.free = append(k.free, e)
}

func (k *refKernel) At(t Time, fn func()) refHandle {
	e := k.alloc(t)
	e.fn = fn
	k.push(e)
	return refHandle{e: e, gen: e.gen}
}

func (k *refKernel) AtFunc(t Time, fn func(a0, a1 unsafe.Pointer), a0, a1 unsafe.Pointer) refHandle {
	e := k.alloc(t)
	e.fn2 = fn
	e.a0 = a0
	e.a1 = a1
	k.push(e)
	return refHandle{e: e, gen: e.gen}
}

func (k *refKernel) Cancel(ev refHandle) {
	e := ev.e
	if e == nil || e.gen != ev.gen || e.index < 0 {
		return
	}
	k.remove(int(e.index))
	k.release(e)
}

func (k *refKernel) Pending() int { return len(k.heap) }

func (k *refKernel) Step() bool {
	if len(k.heap) == 0 {
		return false
	}
	e := k.heap[0]
	k.remove(0)
	k.now = e.at
	k.fired++
	fn, fn2, a0, a1 := e.fn, e.fn2, e.a0, e.a1
	k.release(e)
	if fn != nil {
		fn()
	} else {
		fn2(a0, a1)
	}
	if k.panicVal != nil {
		v := k.panicVal
		k.panicVal = nil
		panic(v)
	}
	return true
}

func (k *refKernel) Run() Time {
	k.running = true
	for k.Step() {
	}
	k.running = false
	return k.now
}

func (k *refKernel) Fired() int64 { return k.fired }

func (k *refKernel) NextEventTime() (Time, bool) {
	if len(k.heap) == 0 {
		return 0, false
	}
	return k.heap[0].at, true
}

func (k *refKernel) Procs() int { return k.procs }

func refEventLess(a, b *refRecord) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (k *refKernel) push(e *refRecord) {
	k.heap = append(k.heap, e)
	k.siftUp(len(k.heap) - 1)
}

func (k *refKernel) remove(i int) {
	h := k.heap
	last := len(h) - 1
	h[i].index = -1
	if i != last {
		moved := h[last]
		h[i] = moved
		h[last] = nil
		k.heap = h[:last]
		moved.index = int32(i)
		k.siftDown(i)
		k.siftUp(int(moved.index))
	} else {
		h[last] = nil
		k.heap = h[:last]
	}
}

func (k *refKernel) siftUp(i int) {
	h := k.heap
	e := h[i]
	for i > 0 {
		p := (i - 1) >> 2
		pe := h[p]
		if !refEventLess(e, pe) {
			break
		}
		h[i] = pe
		pe.index = int32(i)
		i = p
	}
	h[i] = e
	e.index = int32(i)
}

func (k *refKernel) siftDown(i int) {
	h := k.heap
	n := len(h)
	e := h[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		min, me := c, h[c]
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if refEventLess(h[j], me) {
				min, me = j, h[j]
			}
		}
		if !refEventLess(me, e) {
			break
		}
		h[i] = me
		me.index = int32(i)
		i = min
	}
	h[i] = e
	e.index = int32(i)
}

// ---- processes, as proc.go had them ----

type refProc struct {
	k    *refKernel
	name string
	wake chan struct{}
	done bool
}

func (p *refProc) Now() Time { return p.k.now }

func (k *refKernel) Go(name string, fn func(p *refProc)) *refProc {
	p := &refProc{k: k, name: name, wake: make(chan struct{})}
	k.procs++
	go func() {
		<-p.wake
		defer func() {
			p.done = true
			k.procs--
			if r := recover(); r != nil {
				k.panicVal = fmt.Errorf("sim: process %q panicked: %v", p.name, r)
			}
			k.ctl <- struct{}{}
		}()
		fn(p)
	}()
	k.AtFunc(k.now, refResumeProc, unsafe.Pointer(p), nil)
	return p
}

func refResumeProc(a0, _ unsafe.Pointer) {
	p := (*refProc)(a0)
	p.k.resume(p)
}

func (k *refKernel) resume(p *refProc) {
	if p.done {
		return
	}
	if d := k.driving; d != nil {
		if d == p {
			k.driving = nil
			return
		}
		k.driving = nil
		p.wake <- struct{}{}
		<-d.wake
		return
	}
	p.wake <- struct{}{}
	<-k.ctl
}

func (p *refProc) park() {
	k := p.k
	if k.running && k.driving == nil {
		k.driving = p
		k.drive(p)
		return
	}
	k.ctl <- struct{}{}
	<-p.wake
}

func (k *refKernel) drive(p *refProc) {
	defer func() {
		if r := recover(); r != nil {
			k.panicVal = r
			k.driving = nil
			k.ctl <- struct{}{}
			<-p.wake
		}
	}()
	for k.driving == p {
		if len(k.heap) == 0 {
			k.driving = nil
			k.ctl <- struct{}{}
			<-p.wake
			return
		}
		k.Step()
	}
}

func (p *refProc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.k.AtFunc(p.k.now.Add(d), refResumeProc, unsafe.Pointer(p), nil)
	p.park()
}
