package mpi

import (
	"testing"
)

// BenchmarkP2PLatency measures the in-memory point-to-point round trip.
func BenchmarkP2PLatency(b *testing.B) {
	err := Run(2, func(c *Comm) error {
		for i := 0; i < b.N; i++ {
			if c.Rank() == 0 {
				if err := c.Send(1, 1, nil); err != nil {
					return err
				}
				if _, err := c.Recv(1, 2); err != nil {
					return err
				}
			} else {
				if _, err := c.Recv(0, 1); err != nil {
					return err
				}
				if err := c.Send(0, 2, nil); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}
