// Package atm models Asynchronous Transfer Mode framing as deployed in
// the Gigabit Testbed West: 53-byte cells, AAL5 segmentation and
// reassembly, LLC/SNAP encapsulation for Classical IP over ATM (CLIP,
// RFC 1577/2225), and the SDH/SONET carrier hierarchy (OC-3 .. OC-48)
// that the testbed's 622 Mbit/s and 2.4 Gbit/s links ran over.
//
// All sizes are in bytes and all rates in bits per second unless stated
// otherwise. The arithmetic here determines the *payload* capacity that
// the network simulator exposes to IP, which is how the paper's observed
// throughputs (e.g. "less than 8 frames/s over a 622 Mbit/s ATM network
// using classical IP") arise from first principles.
package atm

import "fmt"

const (
	// CellSize is the size of an ATM cell on the wire.
	CellSize = 53
	// CellHeader is the ATM cell header size.
	CellHeader = 5
	// CellPayload is the payload carried per cell.
	CellPayload = CellSize - CellHeader // 48

	// AAL5Trailer is the length of the AAL5 CPCS-PDU trailer
	// (UU, CPI, Length, CRC-32).
	AAL5Trailer = 8

	// LLCSNAPHeader is the LLC/SNAP encapsulation header used by
	// Classical IP over ATM (RFC 2684).
	LLCSNAPHeader = 8

	// DefaultCLIPMTU is the default MTU of Classical IP over ATM
	// (RFC 1577). The testbed's FORE adapters supported much larger
	// MTUs; 64 KByte was used for the supercomputer paths.
	DefaultCLIPMTU = 9180

	// MaxCLIPMTU is the 64 KByte MTU the paper reports for the FORE
	// 622 Mbit/s adapters and the HiPPI paths.
	MaxCLIPMTU = 65536
)

// AAL5PDU reports the size of the AAL5 CPCS-PDU for a payload of n
// bytes: payload plus trailer, padded up to a whole number of cells.
func AAL5PDU(n int) int {
	raw := n + AAL5Trailer
	cells := (raw + CellPayload - 1) / CellPayload
	return cells * CellPayload
}

// Cells reports the number of ATM cells needed to carry an n-byte
// AAL5 payload.
func Cells(n int) int {
	return AAL5PDU(n) / CellPayload
}

// WireBytes reports the on-the-wire size (including cell headers) of an
// n-byte AAL5 payload.
func WireBytes(n int) int {
	return Cells(n) * CellSize
}

// CLIPWireBytes reports the wire size of an IP packet of n bytes carried
// over LLC/SNAP-encapsulated AAL5, as Classical IP over ATM does.
func CLIPWireBytes(n int) int {
	return WireBytes(n + LLCSNAPHeader)
}

// OC is a SONET/SDH optical carrier level (OC-3, OC-12, OC-48...).
type OC int

// Carrier levels used in the testbed. OC-12 carried the first-year
// 622 Mbit/s link; OC-48 the 2.4 Gbit/s upgrade of August 1998.
const (
	OC3  OC = 3
	OC12 OC = 12
	OC48 OC = 48
)

// PayloadRate reports the SDH payload (SPE) rate available to the ATM
// cell stream in bit/s: the line rate minus section/line/path overhead.
// For concatenated STS-Nc the payload is 149.76 Mbit/s per STS-3c.
func (c OC) PayloadRate() float64 {
	// 149.76 Mbit/s usable per OC-3 of carrier.
	return 149.76e6 * float64(c) / 3
}

// ATMPayloadRate reports the bandwidth available to AAL5 payloads in
// bit/s after both SDH overhead and the 5/53 cell-header tax.
func (c OC) ATMPayloadRate() float64 {
	return c.PayloadRate() * CellPayload / CellSize
}

func (c OC) String() string { return fmt.Sprintf("OC-%d", int(c)) }
