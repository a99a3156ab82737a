package dist

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/tenant"
)

// eventHub fans coordinator transitions out to /v1/events subscribers.
// Publishing never blocks the control plane: each subscriber has a
// buffered channel and a slow consumer simply loses frames (its
// channel is full — SSE is a live view, not a durable log; the polling
// endpoints remain the source of truth). dropAll disconnects every
// subscriber: the shutdown path.
type eventHub struct {
	mu     sync.Mutex
	subs   map[chan []byte]struct{}
	closed bool
}

// subBuffer is each subscriber's frame buffer; a dashboard that falls
// this many frames behind starts losing intermediate progress updates.
const subBuffer = 64

func newEventHub() *eventHub {
	return &eventHub{subs: make(map[chan []byte]struct{})}
}

// subscribe registers a new subscriber channel (nil if the hub is
// closed). The channel is closed by unsubscribe or dropAll.
func (h *eventHub) subscribe() chan []byte {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil
	}
	ch := make(chan []byte, subBuffer)
	h.subs[ch] = struct{}{}
	return ch
}

// unsubscribe removes and closes a subscriber channel.
func (h *eventHub) unsubscribe(ch chan []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.subs[ch]; ok {
		delete(h.subs, ch)
		close(ch)
	}
}

// subscribers reports the current subscriber count (for metrics).
func (h *eventHub) subscribers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// publish renders one event as an SSE frame and offers it to every
// subscriber, dropping it for any whose buffer is full. With nobody
// subscribed it renders nothing: callers publish under c.mu.
func (h *eventHub) publish(ev Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.subs) == 0 {
		return
	}
	ev.TimeMS = time.Now().UnixMilli()
	data, err := json.Marshal(ev)
	if err != nil {
		return
	}
	frame := []byte(fmt.Sprintf("event: %s\ndata: %s\n\n", ev.Type, data))
	for ch := range h.subs {
		select {
		case ch <- frame:
		default: // slow consumer: drop the frame, never block
		}
	}
}

// dropAll disconnects every subscriber and refuses new subscriptions
// (coordinator shutdown).
func (h *eventHub) dropAll() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.closed = true
	for ch := range h.subs {
		delete(h.subs, ch)
		close(ch)
	}
}

// eventHeartbeat is how often an idle /v1/events stream emits an SSE
// comment to prove liveness through proxies and dead-peer detection.
const eventHeartbeat = 10 * time.Second

// handleEvents serves GET /v1/events: an SSE stream of Event frames.
func (c *Coordinator) handleEvents(w http.ResponseWriter, r *http.Request, _ *tenant.Tenant) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusNotImplemented)
		return
	}
	ch := c.events.subscribe()
	if ch == nil {
		http.Error(w, "coordinator shutting down", http.StatusServiceUnavailable)
		return
	}
	defer c.events.unsubscribe(ch)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("X-Accel-Buffering", "no")
	// The opening comment tells the client its subscription is live.
	fmt.Fprintf(w, ": gtwd events\nretry: 1000\n\n")
	fl.Flush()
	hb := time.NewTicker(eventHeartbeat)
	defer hb.Stop()
	for {
		select {
		case frame, open := <-ch:
			if !open {
				return // hub dropped us: ReleaseParked
			}
			if _, err := w.Write(frame); err != nil {
				return
			}
			fl.Flush()
		case <-hb.C:
			if _, err := fmt.Fprintf(w, ": ping\n\n"); err != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}
