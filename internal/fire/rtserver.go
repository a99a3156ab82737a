package fire

import (
	"fmt"
	"net"
	"time"

	"repro/internal/mri"
)

// RTServer mirrors FIRE's RT-server: it runs on the scanner's front-end
// workstation and hands raw images to the RT-client on request. Here
// the scanner is the mri.Scanner simulator; AvailabilityDelay models
// the ~1.5 s between the end of a scan and the image being ready at the
// server (section 4, step 1).
type RTServer struct {
	Scanner *mri.Scanner
	// AvailabilityDelay is wall-clock delay applied before each image
	// is released (0 in tests, mri.AvailabilityDelay seconds scaled
	// down in demos).
	AvailabilityDelay time.Duration
}

// ServeConn answers requests on one client connection until the
// measurement ends or the client disconnects. It returns the number of
// images served.
func (s *RTServer) ServeConn(conn net.Conn) (int, error) {
	rt, served := NewConn(conn), 0
	for {
		msg, err := rt.ReadMessage()
		if err != nil {
			return served, fmt.Errorf("fire: RT-server read: %w", err)
		}
		if msg.Type != MsgRequest {
			return served, fmt.Errorf("fire: RT-server got message type %d, want request", msg.Type)
		}
		v := s.Scanner.Next()
		if v == nil {
			if err := rt.WriteDone(); err != nil {
				return served, err
			}
			return served, nil
		}
		if s.AvailabilityDelay > 0 {
			time.Sleep(s.AvailabilityDelay)
		}
		if err := rt.WriteImage(s.Scanner.ScansDone()-1, v); err != nil {
			return served, fmt.Errorf("fire: RT-server write: %w", err)
		}
		served++
	}
}

// ListenAndServe accepts a single client on l and serves it. It is the
// one-experiment-at-a-time model the real setup had: one scanner, one
// RT-client.
func (s *RTServer) ListenAndServe(l net.Listener) (int, error) {
	conn, err := l.Accept()
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	return s.ServeConn(conn)
}

// RTClient pulls raw images from an RT-server and runs them through the
// processing chain.
type RTClient struct {
	conn net.Conn
	rt   *Conn
}

// NewRTClient wraps an established connection.
func NewRTClient(conn net.Conn) *RTClient { return &RTClient{conn: conn, rt: NewConn(conn)} }

// DialRT connects to an RT-server.
func DialRT(addr string) (*RTClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("fire: RT dial: %w", err)
	}
	return NewRTClient(conn), nil
}

// Close closes the connection.
func (c *RTClient) Close() error { return c.conn.Close() }

// NextImage requests and receives the next raw image; at the end of the
// measurement the message has type MsgDone and no image. Every image is
// decoded into the same volume: it is valid only until the next call,
// so a caller that keeps one must copy it.
func (c *RTClient) NextImage() (RTMessage, error) {
	if err := c.rt.WriteRequest(); err != nil {
		return RTMessage{}, err
	}
	msg, err := c.rt.ReadMessage()
	if err != nil {
		return RTMessage{}, err
	}
	if msg.Type != MsgImage && msg.Type != MsgDone {
		return RTMessage{}, fmt.Errorf("fire: unexpected message type %d from RT-server", msg.Type)
	}
	return msg, nil
}
