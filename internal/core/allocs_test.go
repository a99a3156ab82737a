package core

import (
	"context"
	"runtime"
	"testing"
)

// leastAlloc reports the least of three runs' TotalAlloc deltas:
// TotalAlloc is process-wide, so the least is the one run least
// disturbed by whatever else the process allocated meanwhile.
func leastAlloc(t *testing.T, run func() error) uint64 {
	t.Helper()
	var least uint64
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; i == 0 || n < least {
			least = n
		}
	}
	return least
}

// TestAppAllocationBudgets bounds what one run of each application that
// used to allocate per step or per scan allocates. climate-coupled cost
// 96.1 MB while each float burst was copied three times on its way
// through MPI and every regridded field was a new slice; fire-rt-session
// cost 76.5 MB while every Gauss-Newton iteration resampled into a new
// volume and every RT message was encoded and decoded through new
// buffers, and 18.3 MB while the scanner made a new image per scan and a
// new sampler and volume per moved scan; figure3-overlay cost 15.0 MB
// while it kept all 48 scans to read the ROI course at the end. What
// remains is one message payload per MPI send, the scanner's two
// volumes and the correlator's sums. groundwater-coupled (7.8 MB a run)
// and fmri-dataflow (0.5 MB: it computes the volume size instead of
// allocating a volume) are bounded too, so that a return to per-element
// or per-volume allocation shows.
func TestAppAllocationBudgets(t *testing.T) {
	for _, c := range []struct {
		name  string
		bound uint64
	}{
		{"climate-coupled", 30 << 20},
		{"fire-rt-session", 10 << 20},
		{"figure3-overlay", 5 << 20},
		{"groundwater-coupled", 10 << 20},
		{"fmri-dataflow", 1 << 20},
	} {
		t.Run(c.name, func(t *testing.T) {
			n := leastAlloc(t, func() error {
				_, err := Run(context.Background(), c.name)
				return err
			})
			if n > c.bound {
				t.Errorf("%s allocates %.1f MB a run, want at most %d MB", c.name, float64(n)/(1<<20), c.bound>>20)
			}
			t.Logf("%s allocates %.2f MB a run", c.name, float64(n)/(1<<20))
		})
	}
}
