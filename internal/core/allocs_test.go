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

// TestAppAllocationBudgets bounds what one run of each of the two
// applications that used to allocate per step allocates. climate-coupled
// cost 96.1 MB while each float burst was copied three times on its way
// through MPI and every regridded field was a new slice; fire-rt-session
// cost 76.5 MB while every Gauss-Newton iteration resampled into a new
// volume and every RT message was encoded and decoded through new
// buffers. What remains is one message payload per MPI send and, per
// scan, the scanner's image.
func TestAppAllocationBudgets(t *testing.T) {
	const bound = 30 << 20
	for _, name := range []string{"climate-coupled", "fire-rt-session"} {
		t.Run(name, func(t *testing.T) {
			n := leastAlloc(t, func() error {
				_, err := Run(context.Background(), name)
				return err
			})
			if n > bound {
				t.Errorf("%s allocates %.1f MB a run, want at most %d MB", name, float64(n)/(1<<20), bound>>20)
			}
			t.Logf("%s allocates %.2f MB a run", name, float64(n)/(1<<20))
		})
	}
}
