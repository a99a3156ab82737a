// Package netsim is a miniature of the real pooled-packet surface: a
// Network type whose NewPacket draws from a pool and whose Send
// consumes the packet (the network recycles it after the callback).
package netsim

type NodeID int

type Packet struct {
	Src, Dst NodeID
	Bytes    int
}

type Network struct {
	free []*Packet
}

func (n *Network) NewPacket() *Packet {
	if l := len(n.free); l > 0 {
		p := n.free[l-1]
		n.free = n.free[:l-1]
		return p
	}
	return &Packet{}
}

func (n *Network) Send(p *Packet) {}
