package sim

// Chan is a FIFO message channel operating in virtual time. A Chan with
// capacity 0 is unbounded: Send never blocks. A positive capacity makes
// Send block (in virtual time) while the buffer is full, which models
// finite staging buffers.
//
// Chan is the rendezvous primitive used by the metacomputing MPI model
// and the application couplers when they run under the simulator.
//
// Two fast paths keep the rendezvous cheap. The buffer is a Ring, so
// buffered traffic enqueues and dequeues in O(1) however deep the
// backlog grows. And a same-instant handoff passes
// values through parked processes directly: a Send meeting a parked
// receiver hands the value over in the receiver's wait record
// (bypassing the buffer), and a Recv meeting a parked sender enqueues
// that sender's value on its behalf — in both cases the woken process
// just returns instead of re-running its park loop, so a rendezvous
// costs one park/resume rather than two. Handoffs happen at the
// current virtual instant and never change any completion time.

// waiter is one parked process on a channel. The waker may complete the
// operation on the parked process's behalf: val/direct carry a
// handed-over value to a receiver, or record that a blocked sender's
// value was enqueued for it.
type waiter[T any] struct {
	p      *Proc
	val    T
	direct bool
}

// Chan is a virtual-time FIFO channel; see the package comment above.
type Chan[T any] struct {
	k   *Kernel
	cap int // 0 = unbounded

	buf Ring[T]

	recvq Ring[*waiter[T]]
	sendq Ring[*waiter[T]]
	wfree []*waiter[T] // recycled wait records
}

// NewChan creates a channel on kernel k. capacity 0 means unbounded.
func NewChan[T any](k *Kernel, capacity int) *Chan[T] {
	if capacity < 0 {
		capacity = 0
	}
	return &Chan[T]{k: k, cap: capacity}
}

func (c *Chan[T]) getWaiter(p *Proc) *waiter[T] {
	if l := len(c.wfree); l > 0 {
		w := c.wfree[l-1]
		c.wfree[l-1] = nil
		c.wfree = c.wfree[:l-1]
		w.p = p
		return w
	}
	return &waiter[T]{p: p}
}

func (c *Chan[T]) putWaiter(w *waiter[T]) {
	*w = waiter[T]{}
	c.wfree = append(c.wfree, w)
}

// deliverDirect hands v to the longest-parked receiver at the current
// instant, bypassing the buffer. Only legal while nothing is buffered —
// otherwise v would overtake the buffered values.
func (c *Chan[T]) deliverDirect(v T) bool {
	if c.buf.Len() > 0 || c.recvq.Len() == 0 {
		return false
	}
	w := c.recvq.Pop()
	w.val = v
	w.direct = true
	w.p.resumeNow()
	return true
}

// unblockSender moves the longest-parked sender's value into the buffer
// slot a receive just freed and resumes that sender, which then returns
// without re-running its park loop (its value is already in FIFO
// position).
func (c *Chan[T]) unblockSender() {
	if c.sendq.Len() == 0 {
		return
	}
	w := c.sendq.Pop()
	c.buf.Push(w.val)
	w.direct = true
	w.p.resumeNow()
}

// wakeOneRecv resumes the longest-parked receiver; the value awaits it
// in the buffer.
func (c *Chan[T]) wakeOneRecv() {
	if c.recvq.Len() == 0 {
		return
	}
	c.recvq.Pop().p.resumeNow()
}

// Send enqueues v. If the channel is bounded and full, the calling
// process blocks in virtual time until space is available.
func (c *Chan[T]) Send(p *Proc, v T) {
	for c.cap > 0 && c.buf.Len() >= c.cap {
		w := c.getWaiter(p)
		w.val = v
		c.sendq.Push(w)
		p.waitExternal()
		direct := w.direct
		c.putWaiter(w)
		if direct {
			return // a receiver enqueued our value in FIFO position
		}
	}
	if c.deliverDirect(v) {
		return
	}
	c.buf.Push(v)
	c.wakeOneRecv()
}

// TrySend enqueues v without blocking and reports whether it was
// accepted. It may be called from event callbacks (non-process context).
func (c *Chan[T]) TrySend(v T) bool {
	if c.cap > 0 && c.buf.Len() >= c.cap {
		return false
	}
	if c.deliverDirect(v) {
		return true
	}
	c.buf.Push(v)
	c.wakeOneRecv()
	return true
}

// Recv dequeues the oldest message, blocking the calling process in
// virtual time until one is available.
func (c *Chan[T]) Recv(p *Proc) T {
	for c.buf.Len() == 0 {
		w := c.getWaiter(p)
		c.recvq.Push(w)
		p.waitExternal()
		direct, v := w.direct, w.val
		c.putWaiter(w)
		if direct {
			return v // handed over by the sender, never buffered
		}
	}
	v := c.buf.Pop()
	c.unblockSender()
	return v
}

// TryRecv dequeues a message if one is buffered.
func (c *Chan[T]) TryRecv() (T, bool) {
	if c.buf.Len() == 0 {
		var zero T
		return zero, false
	}
	v := c.buf.Pop()
	c.unblockSender()
	return v, true
}
