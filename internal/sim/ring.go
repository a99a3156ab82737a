package sim

import "fmt"

// Ring is a growable FIFO ring buffer: head/length indices over a
// power-of-two slice, so Push and Pop are O(1) however deep the backlog
// grows (no head-copying). It backs Chan's message buffer and netsim's
// interface output queues. The zero value is an empty ring.
type Ring[T any] struct {
	buf  []T
	head int
	n    int
}

// Len reports the number of queued values.
func (r *Ring[T]) Len() int { return r.n }

// Push appends v at the tail, growing the ring when full.
func (r *Ring[T]) Push(v T) { *r.push() = v }

// push appends a slot at the tail, growing the ring when full, and
// returns it for the caller to fill in place. The slot holds the zero
// value.
func (r *Ring[T]) push() *T {
	if r.n == len(r.buf) {
		r.grow()
	}
	slot := &r.buf[(r.head+r.n)&(len(r.buf)-1)]
	r.n++
	return slot
}

// grow doubles the slot count (to at least 8), unwrapping the values to
// the front.
func (r *Ring[T]) grow() {
	grown := make([]T, max(8, 2*len(r.buf)))
	for i := 0; i < r.n; i++ {
		grown[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = grown
	r.head = 0
}

// front returns the head-of-line slot; the ring must not be empty.
func (r *Ring[T]) front() *T { return &r.buf[r.head] }

// At returns the i-th queued value, counting from the head of the line
// (At(0) is what Pop would return). It panics unless 0 <= i < Len().
func (r *Ring[T]) At(i int) T { return *r.slot(i) }

// slot returns the i-th queued slot, counting from the head of the line.
func (r *Ring[T]) slot(i int) *T {
	if i < 0 || i >= r.n {
		panic(fmt.Sprintf("sim: Ring index %d out of range [0, %d)", i, r.n))
	}
	return &r.buf[(r.head+i)&(len(r.buf)-1)]
}

// Pop removes and returns the head-of-line value. It panics on an empty
// ring (check Len first), like an out-of-range slice index.
func (r *Ring[T]) Pop() T {
	if r.n == 0 {
		panic("sim: Pop of empty Ring")
	}
	v := r.buf[r.head]
	r.drop()
	return v
}

// drop removes the head-of-line slot, zeroing it so the ring does not
// pin what it held; the ring must not be empty. Read the slot through
// front first.
func (r *Ring[T]) drop() {
	r.buf[r.head] = *new(T)
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
}
