package netsim_test

import (
	"testing"

	"repro/internal/benchkit"
)

// The benchmark bodies live in internal/benchkit because bench/ times
// the same code as its netsim.packet_ns and netsim.hop_ns rows; these
// wrappers keep them discoverable under `go test -bench`.

// BenchmarkPacketDelivery measures end-to-end packet cost over one
// link (send, serialize, propagate, deliver).
func BenchmarkPacketDelivery(b *testing.B) { benchkit.PacketDelivery(b) }

// BenchmarkMultiHopForwarding measures a 4-hop store-and-forward path.
func BenchmarkMultiHopForwarding(b *testing.B) { benchkit.MultiHopForwarding(b) }
