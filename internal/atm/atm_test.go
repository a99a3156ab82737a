package atm

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAAL5PDUPadding(t *testing.T) {
	cases := []struct{ n, pdu, cells int }{
		{0, 48, 1},        // trailer alone fits one cell
		{1, 48, 1},        // 1+8 = 9 -> 48
		{40, 48, 1},       // 40+8 = 48 exactly
		{41, 96, 2},       // 41+8 = 49 -> 2 cells
		{48, 96, 2},       // 48+8 = 56 -> 2 cells
		{88, 96, 2},       // 88+8 = 96 exactly
		{89, 144, 3},      // spills to 3
		{9180, 9216, 192}, // default CLIP MTU: 9180+8=9188 -> 192 cells
	}
	for _, c := range cases {
		if got := AAL5PDU(c.n); got != c.pdu {
			t.Errorf("AAL5PDU(%d) = %d, want %d", c.n, got, c.pdu)
		}
		if got := Cells(c.n); got != c.cells {
			t.Errorf("Cells(%d) = %d, want %d", c.n, got, c.cells)
		}
		if got := WireBytes(c.n); got != c.cells*CellSize {
			t.Errorf("WireBytes(%d) = %d, want %d", c.n, got, c.cells*CellSize)
		}
	}
}

// Properties of AAL5 framing for arbitrary payload sizes.
func TestAAL5Properties(t *testing.T) {
	f := func(n uint16) bool {
		size := int(n)
		pdu := AAL5PDU(size)
		// PDU is a whole number of cells and fits payload+trailer.
		if pdu%CellPayload != 0 || pdu < size+AAL5Trailer {
			return false
		}
		// Padding never exceeds one cell minus a byte.
		if pdu-(size+AAL5Trailer) >= CellPayload {
			return false
		}
		// Wire size is 53/48 of the PDU exactly.
		return WireBytes(size)*CellPayload == pdu*CellSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEfficiencyMonotoneAndBounded(t *testing.T) {
	if Efficiency(0) != 0 {
		t.Error("Efficiency(0) != 0")
	}
	asym := float64(CellPayload) / float64(CellSize)
	big := Efficiency(1 << 20)
	if big >= asym || big < asym*0.99 {
		t.Errorf("Efficiency(1MiB) = %.4f, want just under %.4f", big, asym)
	}
	// Worst case just past a cell boundary.
	if e := Efficiency(41); e > 0.5 {
		t.Errorf("Efficiency(41) = %.3f, expected < 0.5 (2 cells for 41 bytes)", e)
	}
}

func TestCLIPWireBytes(t *testing.T) {
	// A 9180-byte IP packet with the 8-byte LLC/SNAP header:
	// 9180+8+8 = 9196 -> 192 cells of payload (9216).
	if got, want := CLIPWireBytes(9180), 192*CellSize; got != want {
		t.Errorf("CLIPWireBytes(9180) = %d, want %d", got, want)
	}
}

// LineRate reports the gross optical line rate in bit/s: 51.84 Mbit/s
// per OC-1, the rate PayloadRate's SDH overhead is taken from.
func (c OC) LineRate() float64 { return 51.84e6 * float64(c) }

func TestSDHRates(t *testing.T) {
	if got := OC12.LineRate(); math.Abs(got-622.08e6) > 1 {
		t.Errorf("OC-12 line rate = %v", got)
	}
	if got := OC48.LineRate(); math.Abs(got-2488.32e6) > 1 {
		t.Errorf("OC-48 line rate = %v", got)
	}
	if got := OC12.PayloadRate(); math.Abs(got-599.04e6) > 1 {
		t.Errorf("OC-12 payload rate = %v", got)
	}
	if got := OC48.PayloadRate(); math.Abs(got-2396.16e6) > 1 {
		t.Errorf("OC-48 payload rate = %v", got)
	}
	// ATM payload on OC-12: 599.04 * 48/53 = 542.5 Mbit/s.
	if got := OC12.ATMPayloadRate(); math.Abs(got-542.49e6) > 0.1e6 {
		t.Errorf("OC-12 ATM payload rate = %v", got)
	}
	if OC48.String() != "OC-48" {
		t.Errorf("String = %q", OC48.String())
	}
}

// Efficiency reports the fraction of wire bandwidth available to an
// n-byte AAL5 payload (0 < e < 1). Large payloads approach 48/53 minus
// the trailer tax.
func Efficiency(n int) float64 {
	if n <= 0 {
		return 0
	}
	return float64(n) / float64(WireBytes(n))
}
