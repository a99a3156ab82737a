package fire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/volume"
)

// The RT protocol is the interface between FIRE's RT-server (running on
// the scanner front-end workstation) and the RT-client. The client
// pulls: it requests the next image and the server answers with the raw
// volume or an end-of-measurement marker. All integers are little
// endian; voxels are float32.

// Message types.
const (
	MsgRequest uint8 = 1 // client -> server: send next image
	MsgImage   uint8 = 2 // server -> client: raw image payload
	MsgDone    uint8 = 3 // server -> client: measurement finished
)

// rtMagic guards against protocol confusion on the wire.
const rtMagic uint32 = 0x46495245 // "FIRE"

// header is the fixed-size preamble of every RT message.
type header struct {
	Magic   uint32
	Type    uint8
	_       [3]uint8 // pad
	Scan    uint32
	NX      uint16
	NY      uint16
	NZ      uint16
	_       uint16 // pad
	Payload uint32 // bytes following the header
}

const headerSize = 24

// maxImageVoxels bounds the images the protocol carries: 16 Mi voxels,
// a 64 MiB payload, twice the 256x256x128 anatomy of the workbench. A
// header announcing more is rejected before anything is allocated.
const maxImageVoxels = 1 << 24

// Conn is one end of an RT connection. It frames messages and owns the
// buffer they are encoded in and decoded from and the volume images
// are decoded into, so a session allocates them once: the Image of a
// message ReadMessage returns is valid only until the next ReadMessage.
type Conn struct {
	rw  io.ReadWriter
	buf []byte
	img *volume.Volume
}

// NewConn frames RT messages on rw.
func NewConn(rw io.ReadWriter) *Conn { return &Conn{rw: rw} }

// grow returns the connection's buffer resized to n bytes.
func (c *Conn) grow(n int) []byte {
	if cap(c.buf) < n {
		c.buf = make([]byte, n)
	}
	c.buf = c.buf[:n]
	return c.buf
}

// putHeader encodes h into the first headerSize bytes of buf.
func putHeader(buf []byte, h header) {
	clear(buf[:headerSize])
	binary.LittleEndian.PutUint32(buf[0:], h.Magic)
	buf[4] = h.Type
	binary.LittleEndian.PutUint32(buf[8:], h.Scan)
	binary.LittleEndian.PutUint16(buf[12:], h.NX)
	binary.LittleEndian.PutUint16(buf[14:], h.NY)
	binary.LittleEndian.PutUint16(buf[16:], h.NZ)
	binary.LittleEndian.PutUint32(buf[20:], h.Payload)
}

func (c *Conn) readHeader() (header, error) {
	buf := c.grow(headerSize)
	if _, err := io.ReadFull(c.rw, buf); err != nil {
		return header{}, err
	}
	h := header{
		Magic:   binary.LittleEndian.Uint32(buf[0:]),
		Type:    buf[4],
		Scan:    binary.LittleEndian.Uint32(buf[8:]),
		NX:      binary.LittleEndian.Uint16(buf[12:]),
		NY:      binary.LittleEndian.Uint16(buf[14:]),
		NZ:      binary.LittleEndian.Uint16(buf[16:]),
		Payload: binary.LittleEndian.Uint32(buf[20:]),
	}
	if h.Magic != rtMagic {
		return header{}, fmt.Errorf("fire: bad RT magic %#x", h.Magic)
	}
	return h, nil
}

// writeControl sends a message without payload.
func (c *Conn) writeControl(typ uint8) error {
	buf := c.grow(headerSize)
	putHeader(buf, header{Magic: rtMagic, Type: typ})
	_, err := c.rw.Write(buf)
	return err
}

// WriteRequest sends a next-image request.
func (c *Conn) WriteRequest() error { return c.writeControl(MsgRequest) }

// WriteDone sends the end-of-measurement marker.
func (c *Conn) WriteDone() error { return c.writeControl(MsgDone) }

// WriteImage sends one raw image with its scan index, header and
// payload in one write.
func (c *Conn) WriteImage(scan int, v *volume.Volume) error {
	if v.NX > math.MaxUint16 || v.NY > math.MaxUint16 || v.NZ > math.MaxUint16 || v.Voxels() > maxImageVoxels {
		return fmt.Errorf("fire: image %dx%dx%d exceeds the RT protocol's limits (%d per axis, %d voxels)",
			v.NX, v.NY, v.NZ, math.MaxUint16, maxImageVoxels)
	}
	buf := c.grow(headerSize + 4*v.Voxels())
	putHeader(buf, header{
		Magic: rtMagic, Type: MsgImage, Scan: uint32(scan),
		NX: uint16(v.NX), NY: uint16(v.NY), NZ: uint16(v.NZ),
		Payload: uint32(4 * v.Voxels()),
	})
	for i, f := range v.Data {
		binary.LittleEndian.PutUint32(buf[headerSize+4*i:], math.Float32bits(f))
	}
	_, err := c.rw.Write(buf)
	return err
}

// RTMessage is a decoded protocol message.
type RTMessage struct {
	Type  uint8
	Scan  int
	Image *volume.Volume // non-nil for MsgImage; the connection's, until its next read
}

// ReadMessage reads and decodes one message. An image is decoded into
// the connection's volume, reallocated only when the shape changes.
func (c *Conn) ReadMessage() (RTMessage, error) {
	h, err := c.readHeader()
	if err != nil {
		return RTMessage{}, err
	}
	msg := RTMessage{Type: h.Type, Scan: int(h.Scan)}
	switch h.Type {
	case MsgRequest, MsgDone:
		if h.Payload != 0 {
			return RTMessage{}, fmt.Errorf("fire: unexpected payload %d on message type %d", h.Payload, h.Type)
		}
		return msg, nil
	case MsgImage:
		nvox := int(h.NX) * int(h.NY) * int(h.NZ)
		if nvox == 0 || nvox > maxImageVoxels || uint64(h.Payload) != 4*uint64(nvox) {
			return RTMessage{}, fmt.Errorf("fire: image payload %d inconsistent with dims %dx%dx%d (at most %d voxels)",
				h.Payload, h.NX, h.NY, h.NZ, maxImageVoxels)
		}
		buf := c.grow(int(h.Payload))
		if _, err := io.ReadFull(c.rw, buf); err != nil {
			return RTMessage{}, err
		}
		if c.img == nil || c.img.NX != int(h.NX) || c.img.NY != int(h.NY) || c.img.NZ != int(h.NZ) {
			c.img = volume.New(int(h.NX), int(h.NY), int(h.NZ))
		}
		for i := range c.img.Data {
			c.img.Data[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
		}
		msg.Image = c.img
		return msg, nil
	default:
		return RTMessage{}, fmt.Errorf("fire: unknown RT message type %d", h.Type)
	}
}
