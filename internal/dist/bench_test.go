package dist

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// BenchmarkColdGridJob runs what dominates a cold fleet's tail: a
// 64-point sweep of cheap points through a coordinator with no local
// shard and two in-process workers over loopback HTTP, each iteration
// under new options so every point misses the store. Besides ns/op (one
// job, submit to report) it reports the workers' requests per point —
// lease asks and uploads, heartbeats included — and the leases per job.
func BenchmarkColdGridJob(b *testing.B) {
	registerWireSweep("dist-bench-grid", 64, 0)
	c := New(Config{LocalShards: -1, Poll: 10 * time.Millisecond})
	var reqs atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/workers/") && r.URL.Path != "/v1/workers/register" {
			reqs.Add(1)
		}
		c.Handler().ServeHTTP(w, r)
	}))
	ctx, cancel := context.WithCancel(context.Background())
	var workers sync.WaitGroup
	defer func() {
		cancel()
		workers.Wait()
		c.Close()
		srv.Close()
	}()
	for range 2 {
		w := NewWorker(srv.URL)
		workers.Add(1)
		go func() {
			defer workers.Done()
			_ = w.Run(ctx)
		}()
	}
	cl := &Client{Base: srv.URL, Poll: 10 * time.Millisecond}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if st, err := cl.Status(ctx); err == nil && len(st.Workers) == 2 {
			break
		}
		if time.Now().After(deadline) {
			b.Fatal("workers never registered")
		}
	}

	reqs.Store(0)
	leases0 := c.met.leasesGranted.Value()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := cl.Run(ctx, JobRequest{Scenario: "dist-bench-grid", Opts: WireOptions{Frames: i + 1}})
		if err != nil || st.Status != JobDone || st.PointHits != 0 {
			b.Fatalf("job %d: %v / %+v, want done with no store hit", i, err, st)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(reqs.Load())/float64(64*b.N), "req/point")
	b.ReportMetric(float64(c.met.leasesGranted.Value()-leases0)/float64(b.N), "leases/job")
}
