package mpi

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// endpoint is one rank's handle on its world, shared by its
// communicator and its requests.
type endpoint struct {
	world *World
	proc  *sim.Proc // the rank's process, parked by its blocking calls
	self  int       // world rank
}

// Comm is an intracommunicator: an ordered group of ranks with
// point-to-point and collective operations. The zero value is not
// usable; communicators come from World.Launch or Run.
type Comm struct {
	endpoint
	group   []int // comm rank -> world rank
	rank    int   // this process's comm rank
	p2pCtx  int   // context for user point-to-point traffic
	collCtx int   // context for collective traffic
}

// Rank reports the calling process's rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size reports the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.group) }

func checkRank(r, size int) error {
	if r < 0 || r >= size {
		return fmt.Errorf("mpi: rank %d out of range [0,%d)", r, size)
	}
	return nil
}

// rankIn maps a world rank to its position in group (-1 if the sender
// is outside it).
func rankIn(group []int, world int) int {
	for i, g := range group {
		if g == world {
			return i
		}
	}
	return -1
}

// send moves a copy of data to rank dst of group on context ctx
// (tag >= 0): the caller may reuse data as soon as send returns.
func (e endpoint) send(p *sim.Proc, op string, ctx int, group []int, dst, tag int, data []byte) error {
	return e.transfer(p, op, ctx, group, dst, tag, append([]byte(nil), data...))
}

// transfer moves data itself to rank dst of group on context ctx
// (tag >= 0) and returns once it sits in the destination's mailbox: at
// once between ranks of one host, after its packet train has crossed
// the network otherwise. The receiver owns data from then on. p is the
// process that waits out the transfer — the rank's own, or the helper
// of a nonblocking send.
func (e endpoint) transfer(p *sim.Proc, op string, ctx int, group []int, dst, tag int, data []byte) error {
	if err := checkRank(dst, len(group)); err != nil {
		return err
	}
	if tag < 0 {
		return fmt.Errorf("mpi: negative tag %d is reserved", tag)
	}
	w, to := e.world, group[dst]
	start := w.k.Now()
	msg := message{ctx: ctx, src: e.self, tag: tag, data: data}
	if a, b := w.ranks[e.self].node, w.ranks[to].node; a != b {
		train := netsim.Train(w.net, a, b, envelope+len(data))
		if err := w.park(p, blocked{e.self, op, ctx, to, tag, train}); err != nil {
			return err
		}
	}
	w.ranks[to].deliver(msg)
	w.trace(e.self, op, dst, tag, len(data), start)
	return nil
}

// deliver hands m to the oldest posted receive it matches or queues it.
func (s *slot) deliver(m message) {
	for i, r := range s.posted {
		if r.matches(m) {
			s.posted = append(s.posted[:i], s.posted[i+1:]...)
			r.match(m)
			return
		}
	}
	s.queue = append(s.queue, m)
}

// take removes and returns the oldest queued message r matches.
func (s *slot) take(r *Request) (message, bool) {
	for i, m := range s.queue {
		if r.matches(m) {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			return m, true
		}
	}
	return message{}, false
}

// Send delivers data to dst with the given tag (tag >= 0). It blocks
// for the duration of the transfer, like a standard-mode send of a
// large message.
func (c *Comm) Send(dst, tag int, data []byte) error {
	return c.send(c.proc, "send", c.p2pCtx, c.group, dst, tag, data)
}

// sendColl is the internal send on the collective context.
func (c *Comm) sendColl(dst, tag int, data []byte) error {
	return c.send(c.proc, "coll-send", c.collCtx, c.group, dst, tag, data)
}

// recvColl is the internal receive on the collective context.
func (c *Comm) recvColl(src, tag int) ([]byte, error) {
	msg, err := c.irecv("coll-recv", c.collCtx, c.group, src, tag).Wait()
	return msg.Data, err
}

// Message is a received point-to-point message.
type Message struct {
	Source int // comm rank of the sender
	Tag    int
	Data   []byte
}

// Recv blocks until a message matching src (or AnySource) and tag (or
// AnyTag) arrives.
func (c *Comm) Recv(src, tag int) (Message, error) {
	return c.Irecv(src, tag).Wait()
}

// Sendrecv performs a combined send and receive, safe against the
// head-to-head exchange deadlock.
func (c *Comm) Sendrecv(dst, sendTag int, data []byte, src, recvTag int) (Message, error) {
	sent := c.Isend(dst, sendTag, data)
	msg, err := c.Recv(src, recvTag)
	if err != nil {
		return Message{}, err
	}
	if _, err := sent.Wait(); err != nil {
		return Message{}, err
	}
	return msg, nil
}

// Request is a handle for a nonblocking operation; a blocking receive
// is a Request waited for at once.
type Request struct {
	blocked // who waits for what; ch is set while Wait is parked
	e       endpoint
	group   []int // the numbering a receive reports its sender in
	start   sim.Time
	done    bool
	msg     Message
	err     error
}

// irecv starts a receive of the endpoint's rank from rank src of group
// (or AnySource): it completes from the mailbox or is posted there for
// the matching send to complete.
func (e endpoint) irecv(op string, ctx int, group []int, src, tag int) *Request {
	peer := AnySource
	if src != AnySource {
		if err := checkRank(src, len(group)); err != nil {
			return &Request{done: true, err: err}
		}
		peer = group[src]
	}
	r := &Request{
		blocked: blocked{rank: e.self, op: op, ctx: ctx, peer: peer, tag: tag},
		e:       e, group: group, start: e.world.k.Now(),
	}
	box := e.world.ranks[e.self]
	if m, ok := box.take(r); ok {
		r.match(m)
	} else {
		box.posted = append(box.posted, r)
	}
	return r
}

func (r *Request) matches(m message) bool {
	return m.ctx == r.ctx && (r.peer == AnySource || m.src == r.peer) && (r.tag == AnyTag || m.tag == r.tag)
}

// match completes a receive with the message it waited for, at the
// instant that message arrives.
func (r *Request) match(m message) {
	src := rankIn(r.group, m.src)
	r.e.world.trace(r.rank, r.op, src, m.tag, len(m.data), r.start)
	r.finish(Message{Source: src, Tag: m.tag, Data: m.data}, nil)
}

// finish completes the request and wakes its rank if that is waiting.
func (r *Request) finish(m Message, err error) {
	r.msg, r.err, r.done = m, err, true
	if r.ch != nil {
		r.ch.TrySend(struct{}{})
	}
}

// Wait blocks until the operation completes and returns its result.
// The Message is meaningful for Irecv requests only.
func (r *Request) Wait() (Message, error) {
	if !r.done {
		w := r.e.world
		r.ch = w.ranks[r.rank].wake
		if err := w.park(r.e.proc, r.blocked); err != nil {
			return Message{}, err
		}
	}
	return r.msg, r.err
}

// Isend starts a nonblocking send. It runs on a helper process of its
// own, so the transfer proceeds while the rank goes on to receive.
func (c *Comm) Isend(dst, tag int, data []byte) *Request {
	r := &Request{blocked: blocked{rank: c.self, op: "wait for its nonblocking send"}, e: c.endpoint}
	c.world.k.Go("send", func(p *sim.Proc) {
		r.finish(Message{}, c.send(p, "send", c.p2pCtx, c.group, dst, tag, data))
	})
	return r
}

// Irecv starts a nonblocking receive.
func (c *Comm) Irecv(src, tag int) *Request {
	return c.irecv("recv", c.p2pCtx, c.group, src, tag)
}

// --- Typed helpers (the "language interoperability" face of the
// library: a byte-oriented core with typed encodings on top). ---

// Float64sToBytes encodes a float64 slice little-endian.
func Float64sToBytes(v []float64) []byte {
	return appendFloat64s(make([]byte, 0, 8*len(v)), v)
}

// appendFloat64s appends v to buf little-endian.
func appendFloat64s(buf []byte, v []float64) []byte {
	for _, f := range v {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
	}
	return buf
}

// BytesToFloat64s decodes a little-endian float64 slice.
func BytesToFloat64s(b []byte) ([]float64, error) {
	return decodeFloat64s(nil, b)
}

// decodeFloat64s decodes a little-endian float64 slice into dst's
// array, allocating a new one only when dst's is too short.
func decodeFloat64s(dst []float64, b []byte) ([]float64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("mpi: byte length %d not a multiple of 8", len(b))
	}
	n := len(b) / 8
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return dst, nil
}

// Float32sToBytes encodes a float32 slice little-endian.
func Float32sToBytes(v []float32) []byte {
	buf := make([]byte, 4*len(v))
	for i, f := range v {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(f))
	}
	return buf
}

// BytesToFloat32s decodes a little-endian float32 slice.
func BytesToFloat32s(b []byte) ([]float32, error) {
	if len(b)%4 != 0 {
		return nil, fmt.Errorf("mpi: byte length %d not a multiple of 4", len(b))
	}
	out := make([]float32, len(b)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out, nil
}

// SendFloat64s sends the concatenation of parts as one float64 message.
// The values are encoded once, straight into the message the receiver
// gets; the caller may change parts as soon as the call returns.
func (c *Comm) SendFloat64s(dst, tag int, parts ...[]float64) error {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	buf := make([]byte, 0, 8*n)
	for _, p := range parts {
		buf = appendFloat64s(buf, p)
	}
	return c.transfer(c.proc, "send", c.p2pCtx, c.group, dst, tag, buf)
}

// RecvFloat64s receives a float64 slice into dst's array, allocating a
// new one only when dst's is too short (nil dst: always). A loop that
// passes back what the last call returned decodes every step into the
// same array.
func (c *Comm) RecvFloat64s(dst []float64, src, tag int) ([]float64, error) {
	msg, err := c.Recv(src, tag)
	if err != nil {
		return nil, err
	}
	return decodeFloat64s(dst, msg.Data)
}
