package climate

import "testing"

// BenchmarkRunCoupled: ten coupling steps of the climate-coupled grids
// (ocean 64x128, atmosphere 32x64) with free networking, so the time
// is the models, the regridding and the MPI encode/decode, and B/op is
// what the three ranks allocate: one payload per message once their
// buffers exist.
func BenchmarkRunCoupled(b *testing.B) {
	cfg := CoupledConfig{
		OceanGrid: Grid{NLat: 64, NLon: 128},
		AtmosGrid: Grid{NLat: 32, NLon: 64},
		Dt:        3600, Steps: 10,
	}
	hosts := [3]string{"t3e", "sp2", "t90"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunCoupled(nil, hosts, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
