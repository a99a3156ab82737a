package tcpsim_test

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/tcpsim"
)

// fuzzNet is a transfer decoded from fuzz input: a chain of one to four
// links between two hosts, and the transfer's configuration and sizes.
type fuzzNet struct {
	links  []netsim.LinkConfig
	relay  []func(*netsim.Node) // one per relay node
	srcBps float64
	dstBps float64
	cfg    tcpsim.Config
	first  int64
	second int64
}

// decodeTransfer reads a transfer from in, one byte per choice (zero
// once in runs out): hop count, then per link its rate, delay, MTU,
// framing and queue cap, per relay its forwarding cost and copy rate,
// the two hosts' I/O caps, window, MSS and the two transfer sizes.
// Queue caps go down to 12 KiB, small enough to drop, but never below
// the link's MTU (netsim refuses such a link), and windows down to
// 4 KiB, below most MSS choices.
func decodeTransfer(in []byte) fuzzNet {
	pos := 0
	next := func() int {
		if pos >= len(in) {
			return 0
		}
		pos++
		return int(in[pos-1])
	}
	pick := func(choices ...float64) float64 { return choices[next()%len(choices)] }
	var f fuzzNet
	hops := 1 + next()%4
	for i := 0; i < hops; i++ {
		l := netsim.LinkConfig{
			Bps:        pick(155e6, 599.04e6, 622e6, 800e6, 1e9, 2.4e9) + float64(next()%8)*1e6,
			Delay:      time.Duration(pick(0, 1e3, 5e3, 100e3, 500e3, 2e6)) + time.Duration(next()),
			MTU:        int(pick(1500, 4352, 9180, 65536)),
			QueueBytes: int64(pick(12<<10, 64<<10, 256<<10, 1<<20, 8<<20)),
		}
		l.QueueBytes = max(l.QueueBytes, int64(l.MTU))
		if next()%2 == 1 {
			l.Framer = core.ATMFramer{}
		}
		f.links = append(f.links, l)
	}
	for i := 1; i < hops; i++ {
		cost := time.Duration(pick(0, 500, 1e3, 20e3, 50e3))
		bps := pick(0, 0, 400e6, 800e6)
		f.relay = append(f.relay, netsim.WithForwardCost(cost, bps))
	}
	f.srcBps = pick(0, 0, 0, 264e6, 100e6)
	f.dstBps = pick(0, 0, 0, 264e6, 300e6)
	f.cfg.WindowBytes = int(pick(4<<10, 16<<10, 64<<10, 256<<10, 1<<20))
	f.cfg.MSS = int(pick(0, 0, 536, 1460, 4000, 8960))
	f.first = int64(pick(64<<10, 512<<10, 1<<20, 2<<20)) + int64(next())*257
	f.second = int64(next()) * 4099
	return f
}

// build makes a fresh network for the transfer.
func (f fuzzNet) build() (*netsim.Network, netsim.NodeID, netsim.NodeID) {
	n := netsim.New(sim.NewKernel())
	src := n.AddNode("src", netsim.WithHostBps(f.srcBps))
	prev := src
	for i, l := range f.links {
		var nd *netsim.Node
		if i == len(f.links)-1 {
			nd = n.AddNode("dst", netsim.WithHostBps(f.dstBps))
		} else {
			nd = n.AddNode("relay", f.relay[i])
		}
		n.Connect(prev, nd, l)
		prev = nd
	}
	n.ComputeRoutes()
	return n, src.ID, prev.ID
}

// FuzzTransferFastForward decodes a chain network and a transfer (see
// decodeTransfer) and runs it twice on fresh networks, with the
// fast-forward on and off, each followed by a second transfer on the
// network the first leaves. Results, errors, cwnd bits, RTO counts,
// clocks and the empty schedule must be the same.
//
// The seed corpus in testdata/fuzz/FuzzTransferFastForward replays in
// every plain go test; TestTransferFastForwardCorpusSkips checks that
// the fast-forward fires on it, so the comparison is not vacuous.
func FuzzTransferFastForward(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		fn := decodeTransfer(in)
		sameWithAndWithout(t, fn.build, fn.first, fn.second, fn.cfg)
	})
}

// corpus reads the committed seed corpus of FuzzTransferFastForward.
func corpus(t *testing.T) [][]byte {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", "FuzzTransferFastForward")
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var inputs [][]byte
	for _, fi := range files {
		raw, err := os.ReadFile(filepath.Join(dir, fi.Name()))
		if err != nil {
			t.Fatal(err)
		}
		// The file is "go test fuzz v1" and one []byte("...") line.
		_, arg, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		arg, ok := strings.CutPrefix(arg, "[]byte(")
		in, err := strconv.Unquote(strings.TrimSuffix(arg, ")"))
		if !ok || err != nil {
			t.Fatalf("%s: not a one-[]byte corpus file: %q", fi.Name(), raw)
		}
		inputs = append(inputs, []byte(in))
	}
	return inputs
}

// TestTransferFastForwardCorpusSkips replays the committed corpus and
// requires most of its inputs to skip periods.
func TestTransferFastForwardCorpusSkips(t *testing.T) {
	inputs := corpus(t)
	jumped := 0
	for _, in := range inputs {
		fn := decodeTransfer(in)
		if sameWithAndWithout(t, fn.build, fn.first, fn.second, fn.cfg) > 0 {
			jumped++
		}
	}
	if len(inputs) < 8 || 2*jumped < len(inputs) {
		t.Errorf("%d of %d corpus inputs skipped periods; want at least half of at least 8", jumped, len(inputs))
	}
}

// TestTransferFastForwardCorpusFiresRTO replays the committed corpus
// and requires at least two of its inputs to fire a retransmission
// timeout, with the fast-forward on and off alike (the outcome compared
// counts the RTOs), so the on/off comparison covers loss recovery by
// timeout and not only by duplicate ACKs. Three do: a 64 KiB transfer
// whose first burst overflows a 12 KiB queue and loses its tail (one
// RTO), a 1 MiB one in 65 496-byte segments through a 64 KiB queue
// (one), and a pair over a 155 Mbit/s link with a 12 KiB queue in
// 8 960-byte segments (11 RTOs, then 5 in the second transfer).
func TestTransferFastForwardCorpusFiresRTO(t *testing.T) {
	fired := 0
	for _, in := range corpus(t) {
		fn := decodeTransfer(in)
		out, _ := transferTwice(t, false, fn.build, fn.first, fn.second, fn.cfg)
		if out[0].RTOs+out[1].RTOs > 0 {
			fired++
			sameWithAndWithout(t, fn.build, fn.first, fn.second, fn.cfg)
		}
	}
	if fired < 2 {
		t.Errorf("%d corpus inputs fire an RTO; want at least 2", fired)
	}
}
