// Package mpitrace is the VAMPIR-analogue for this repository: it
// records the communication events of an internal/mpi program and
// renders per-rank statistics, a source->destination message matrix and
// a text Gantt chart of communication activity. The original testbed
// extended Pallas' VAMPIR tool for the metacomputing MPI library; this
// package provides the same workflow for programs written against
// internal/mpi. All times are virtual: the ranks are simulation
// processes, so a trace is a deterministic function of the program and
// the network it ran on.
package mpitrace

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/sim"
)

// Event is one recorded communication operation.
type Event struct {
	Rank  int
	Kind  string // "send", "recv", "coll-send", "coll-recv"
	Peer  int
	Tag   int
	Bytes int
	Start sim.Time
	End   sim.Time
}

// Duration reports the time spent inside the operation.
func (e Event) Duration() time.Duration { return e.End.Sub(e.Start) }

// Recorder collects events; it implements mpi.Tracer. Ranks run one at
// a time, so it needs no locking.
type Recorder struct {
	events []Event
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Event implements the mpi.Tracer interface.
func (r *Recorder) Event(rank int, kind string, peer, tag, bytes int, start, end sim.Time) {
	r.events = append(r.events, Event{rank, kind, peer, tag, bytes, start, end})
}

// Events returns a copy of all recorded events sorted by start time
// (simultaneous ones in the order they completed).
func (r *Recorder) Events() []Event {
	out := append([]Event(nil), r.events...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// RankStats summarizes one rank's communication behaviour.
type RankStats struct {
	Rank      int
	Sends     int
	Recvs     int
	BytesSent int64
	BytesRecv int64
	CommTime  time.Duration
}

// Stats aggregates the trace.
type Stats struct {
	Ranks []RankStats
	// Matrix[src][dst] is the total user-payload bytes sent src->dst
	// (point-to-point sends only).
	Matrix map[int]map[int]int64
}

// Stats computes per-rank summaries and the message matrix.
func (r *Recorder) Stats() Stats {
	byRank := map[int]*RankStats{}
	matrix := map[int]map[int]int64{}
	for _, e := range r.Events() {
		rs, ok := byRank[e.Rank]
		if !ok {
			rs = &RankStats{Rank: e.Rank}
			byRank[e.Rank] = rs
		}
		rs.CommTime += e.Duration()
		switch e.Kind {
		case "send", "coll-send":
			rs.Sends++
			rs.BytesSent += int64(e.Bytes)
			if e.Kind == "send" {
				row := matrix[e.Rank]
				if row == nil {
					row = map[int]int64{}
					matrix[e.Rank] = row
				}
				row[e.Peer] += int64(e.Bytes)
			}
		case "recv", "coll-recv":
			rs.Recvs++
			rs.BytesRecv += int64(e.Bytes)
		}
	}
	var ranks []RankStats
	for _, rs := range byRank {
		ranks = append(ranks, *rs)
	}
	sort.Slice(ranks, func(i, j int) bool { return ranks[i].Rank < ranks[j].Rank })
	return Stats{Ranks: ranks, Matrix: matrix}
}

// Gantt renders a fixed-width text timeline: one row per rank, '#' where
// the rank was inside a communication call, '.' where it was outside
// one (in virtual time, where computing takes none, that is a rank with
// nothing posted). It is the textual equivalent of VAMPIR's timeline
// display.
func (r *Recorder) Gantt(width int) string {
	events := r.Events()
	if len(events) == 0 || width <= 0 {
		return "(no events)\n"
	}
	t0 := events[0].Start
	t1 := events[0].End
	maxRank := 0
	for _, e := range events {
		if e.Start < t0 {
			t0 = e.Start
		}
		if e.End > t1 {
			t1 = e.End
		}
		if e.Rank > maxRank {
			maxRank = e.Rank
		}
	}
	span := t1.Sub(t0)
	if span <= 0 {
		span = time.Nanosecond
	}
	rows := make([][]byte, maxRank+1)
	for i := range rows {
		rows[i] = []byte(strings.Repeat(".", width))
	}
	for _, e := range events {
		a := int(float64(e.Start.Sub(t0)) / float64(span) * float64(width))
		b := int(float64(e.End.Sub(t0)) / float64(span) * float64(width))
		if b >= width {
			b = width - 1
		}
		for i := a; i <= b && i < width; i++ {
			rows[e.Rank][i] = '#'
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "timeline %v (%d events, '#'=in MPI)\n", span.Round(time.Microsecond), len(events))
	for rank, row := range rows {
		fmt.Fprintf(&sb, "rank %2d |%s|\n", rank, row)
	}
	return sb.String()
}

// FormatStats renders the per-rank table and matrix as text.
func FormatStats(s Stats) string {
	var sb strings.Builder
	sb.WriteString("rank   sends   recvs     sent_bytes     recv_bytes      comm_time\n")
	for _, rs := range s.Ranks {
		fmt.Fprintf(&sb, "%4d  %6d  %6d  %13d  %13d  %13v\n",
			rs.Rank, rs.Sends, rs.Recvs, rs.BytesSent, rs.BytesRecv, rs.CommTime.Round(time.Microsecond))
	}
	if len(s.Matrix) > 0 {
		sb.WriteString("message matrix (src -> dst: bytes)\n")
		var srcs []int
		for src := range s.Matrix {
			srcs = append(srcs, src)
		}
		sort.Ints(srcs)
		for _, src := range srcs {
			var dsts []int
			for dst := range s.Matrix[src] {
				dsts = append(dsts, dst)
			}
			sort.Ints(dsts)
			for _, dst := range dsts {
				fmt.Fprintf(&sb, "  %d -> %d: %d\n", src, dst, s.Matrix[src][dst])
			}
		}
	}
	return sb.String()
}
