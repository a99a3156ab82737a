package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	gtw "repro"

	"repro/internal/dist"
)

// -update regenerates the golden files:
//
//	go test ./cmd/gtwrun -run Golden -update
var update = flag.Bool("update", false, "rewrite golden files")

func TestListPrintsEveryRegisteredScenario(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("run(-list) = %d, stderr: %s", code, errOut.String())
	}
	for _, s := range gtw.Scenarios() {
		if !strings.Contains(out.String(), s.Name()) {
			t.Errorf("-list output missing scenario %q", s.Name())
		}
	}
}

func TestRunSingleScenario(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"table1-model"}, &out, &errOut); code != 0 {
		t.Fatalf("run(table1-model) = %d, stderr: %s", code, errOut.String())
	}
	got := out.String()
	if !strings.Contains(got, "=== table1-model") {
		t.Errorf("output missing scenario header:\n%s", got)
	}
	if !strings.Contains(got, "ran 1 scenario(s)") {
		t.Errorf("output missing run summary:\n%s", got)
	}
}

func TestUnknownScenarioFails(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"no-such-scenario"}, &out, &errOut)
	if code == 0 {
		t.Fatal("run(no-such-scenario) succeeded")
	}
	if !strings.Contains(errOut.String(), "no-such-scenario") {
		t.Errorf("stderr does not name the unknown scenario: %s", errOut.String())
	}
}

func TestNoArgsIsUsageError(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(nil, &out, &errOut); code != 2 {
		t.Errorf("run() = %d, want usage error 2", code)
	}
	if !strings.Contains(errOut.String(), "usage:") {
		t.Errorf("stderr missing usage line: %s", errOut.String())
	}
}

func TestBadWANFlagFails(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-wan", "oc768", "table1-model"}, &out, &errOut); code != 2 {
		t.Errorf("run(-wan oc768) = %d, want 2", code)
	}
}

// The simulation runs on one kernel per testbed: -kernels is not a flag.
func TestKernelsFlagIsRejected(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-kernels", "2", "table1-model"}, &out, &errOut); code != 2 {
		t.Errorf("run(-kernels 2) = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "-kernels") {
		t.Errorf("stderr does not name the flag: %q", errOut.String())
	}
}

func TestCPUProfileIsWritten(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.prof")
	var out, errOut strings.Builder
	if code := run([]string{"-cpuprofile", path, "table1-model"}, &out, &errOut); code != 0 {
		t.Fatalf("run(-cpuprofile) = %d, stderr: %s", code, errOut.String())
	}
	// run has returned, so the profile is stopped and the file closed.
	if st, err := os.Stat(path); err != nil || st.Size() == 0 {
		t.Errorf("profile not written: %v, %v", st, err)
	}

	// A path that cannot be created is a flag error, before anything runs.
	out.Reset()
	errOut.Reset()
	bad := filepath.Join(t.TempDir(), "no-such-dir", "cpu.prof")
	if code := run([]string{"-cpuprofile", bad, "table1-model"}, &out, &errOut); code != 2 {
		t.Errorf("run(-cpuprofile %s) = %d, want 2", bad, code)
	}
	if !strings.Contains(errOut.String(), "-cpuprofile") || out.Len() != 0 {
		t.Errorf("stderr %q should name the flag, stdout %q should be empty", errOut.String(), out.String())
	}
}

func TestJSONOutput(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-json", "table1-model"}, &out, &errOut); code != 0 {
		t.Fatalf("run(-json table1-model) = %d, stderr: %s", code, errOut.String())
	}
	line := strings.TrimSpace(out.String())
	var doc struct {
		Scenario  string          `json:"scenario"`
		ElapsedMs int64           `json:"elapsed_ms"`
		Report    json.RawMessage `json:"report"`
	}
	if err := json.Unmarshal([]byte(line), &doc); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, line)
	}
	if doc.Scenario != "table1-model" {
		t.Errorf("scenario = %q, want table1-model", doc.Scenario)
	}
	if len(doc.Report) == 0 {
		t.Error("empty report object")
	}
}

// A sweep scenario's -json envelope must carry the per-shard timings
// while the report object itself stays shard-count independent.
func TestJSONSweepEnvelopeCarriesShardTimings(t *testing.T) {
	runJSON := func(args ...string) (report string, points int) {
		t.Helper()
		var out, errOut strings.Builder
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("run(%v) = %d, stderr: %s", args, code, errOut.String())
		}
		line := strings.TrimSpace(out.String())
		var doc struct {
			Scenario string `json:"scenario"`
			Shards   []struct {
				Shard     int   `json:"shard"`
				Points    int   `json:"points"`
				ElapsedNS int64 `json:"elapsed_ns"`
			} `json:"shards"`
			Report json.RawMessage `json:"report"`
		}
		if err := json.Unmarshal([]byte(line), &doc); err != nil {
			t.Fatalf("-json output invalid: %v\n%s", err, line)
		}
		if len(doc.Shards) == 0 {
			t.Fatalf("sweep envelope has no shards array: %s", line)
		}
		for _, s := range doc.Shards {
			points += s.Points
		}
		return string(doc.Report), points
	}
	seqReport, seqPoints := runJSON("-json", "-workers", "1", "backbone-aggregate")
	shardReport, shardPoints := runJSON("-json", "backbone-aggregate")
	if seqPoints != 2 || shardPoints != 2 {
		t.Errorf("shard points = %d / %d, want 2 grid points covered", seqPoints, shardPoints)
	}
	if seqReport != shardReport {
		t.Errorf("report changed with shard count:\n%s\nvs\n%s", seqReport, shardReport)
	}
}

// The -json envelope schema — including the workers and shards fields
// added with the distributed run service — is pinned by a golden file,
// so it cannot drift silently: clients parse these envelopes. Volatile
// values (wall-clock timings) are normalized; everything else,
// including the report bytes, must match testdata/envelope.golden
// byte for byte. Regenerate deliberately with -update.
func TestJSONEnvelopeGolden(t *testing.T) {
	var out, errOut strings.Builder
	// One shard pins the per-shard point assignment (with several, the
	// work-stealing split is a wall-clock race), and -workers 1 caps a
	// sweep at one; the envelope schema and report bytes are identical
	// at any shard count.
	args := []string{"-json", "-workers", "1", "backbone-aggregate"}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("run(%v) = %d, stderr: %s", args, code, errOut.String())
	}
	var env map[string]any
	line := strings.TrimSpace(out.String())
	if err := json.Unmarshal([]byte(line), &env); err != nil {
		t.Fatalf("envelope is not valid JSON: %v\n%s", err, line)
	}
	// Normalize wall-clock values; everything else is deterministic.
	env["elapsed_ms"] = 0
	if shards, ok := env["shards"].([]any); ok {
		for _, s := range shards {
			s.(map[string]any)["elapsed_ns"] = 0
		}
	}
	got, err := json.MarshalIndent(env, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "envelope.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("-json envelope drifted from %s (regenerate deliberately with -update):\n--- got\n%s--- want\n%s",
			golden, got, want)
	}
}

// -connect must print the same report a local run produces: the
// coordinator round-trip (job queue, lease dispatch, JSON transport)
// may not change a single report byte.
func TestConnectMatchesLocalRun(t *testing.T) {
	c := dist.New(dist.Config{LocalShards: 2, Logf: t.Logf})
	defer c.Close()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	parseEnvelope := func(args ...string) jsonEnvelope {
		t.Helper()
		var out, errOut strings.Builder
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("run(%v) = %d, stderr: %s", args, code, errOut.String())
		}
		var env jsonEnvelope
		if err := json.Unmarshal([]byte(strings.TrimSpace(out.String())), &env); err != nil {
			t.Fatalf("invalid envelope: %v", err)
		}
		return env
	}
	local := parseEnvelope("-json", "backbone-aggregate")
	remote := parseEnvelope("-json", "-connect", srv.URL, "backbone-aggregate")
	if !bytes.Equal(local.Report, remote.Report) {
		t.Errorf("-connect report differs from local run:\n%s\nvs\n%s", remote.Report, local.Report)
	}
	if remote.Workers < 1 || len(remote.Shards) == 0 {
		t.Errorf("-connect envelope missing execution metadata: workers=%d shards=%v",
			remote.Workers, remote.Shards)
	}
	// A second -connect run is served from the coordinator's
	// content-addressed point store — every grid point hits — and is
	// still byte-identical.
	again := parseEnvelope("-json", "-connect", srv.URL, "backbone-aggregate")
	if !bytes.Equal(local.Report, again.Report) {
		t.Error("cached -connect report differs from local run")
	}
	if !again.Cached || again.PointHits == 0 {
		t.Errorf("second -connect run not served from the point store: cached=%v point_hits=%d",
			again.Cached, again.PointHits)
	}
}

// A coordinator-side job failure must surface the coordinator's failure
// text and the job's progress — not just an HTTP status — and exit
// non-zero; with -json the failure lands on stdout as an error
// envelope, so scripted consumers see it too.
func TestConnectSurfacesJobFailureText(t *testing.T) {
	gtw.MustRegister(gtw.NewSweep("gtwrun-fail-sweep", "always fails at point 1",
		[]gtw.Axis{{Name: "i", Values: []any{0, 1, 2}}},
		func(ctx context.Context, tb *gtw.Testbed, opts gtw.Options, pt gtw.Point) (any, error) {
			if pt.Index == 1 {
				return nil, fmt.Errorf("synthetic point failure")
			}
			return gtw.Figure1Row{Path: "ok"}, nil
		},
		func(opts gtw.Options, results []any) (gtw.Report, error) {
			return &gtw.Figure1Report{}, nil
		}).NoShardTestbed().WirePoint(gtw.Figure1Row{}))

	c := dist.New(dist.Config{LocalShards: 1, Logf: t.Logf})
	defer c.Close()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	var out, errOut strings.Builder
	if code := run([]string{"-connect", srv.URL, "gtwrun-fail-sweep"}, &out, &errOut); code != 1 {
		t.Fatalf("run(-connect failing job) = %d, want 1; stderr: %s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "synthetic point failure") {
		t.Errorf("stderr does not surface the coordinator-side failure text: %s", errOut.String())
	}
	if !strings.Contains(errOut.String(), "points done") {
		t.Errorf("stderr does not surface the job's progress: %s", errOut.String())
	}

	out.Reset()
	errOut.Reset()
	if code := run([]string{"-json", "-connect", srv.URL, "gtwrun-fail-sweep"}, &out, &errOut); code != 1 {
		t.Fatalf("run(-json -connect failing job) = %d, want 1", code)
	}
	var env jsonEnvelope
	if err := json.Unmarshal([]byte(strings.TrimSpace(out.String())), &env); err != nil {
		t.Fatalf("no error envelope on stdout: %v\n%s", err, out.String())
	}
	if env.Error == "" || !strings.Contains(env.Error, "synthetic point failure") {
		t.Errorf("error envelope missing failure text: %+v", env)
	}
	if len(env.Report) != 0 {
		t.Errorf("error envelope carries a report: %s", env.Report)
	}
}

// An unreachable coordinator is a failure with the transport error in
// the text, not a silent success.
func TestConnectUnreachableCoordinatorFails(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-connect", "http://127.0.0.1:1", "table1-model"}, &out, &errOut); code != 1 {
		t.Errorf("run(-connect unreachable) = %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "FAILED") {
		t.Errorf("stderr missing failure line: %s", errOut.String())
	}
}

// The -connect envelope schema — including the point_hits and cached
// fields of the content-addressed point store — pinned by its own
// golden file. A job is submitted twice: the second is served entirely
// from the store, so its envelope is deterministic (volatile timings
// normalized). Regenerate deliberately with -update.
func TestConnectJSONEnvelopeGolden(t *testing.T) {
	c := dist.New(dist.Config{LocalShards: 1, Logf: t.Logf})
	defer c.Close()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	runConnectJSON := func() string {
		t.Helper()
		var out, errOut strings.Builder
		args := []string{"-json", "-connect", srv.URL, "backbone-aggregate"}
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("run(%v) = %d, stderr: %s", args, code, errOut.String())
		}
		return strings.TrimSpace(out.String())
	}
	runConnectJSON() // warm the point store
	line := runConnectJSON()
	var env map[string]any
	if err := json.Unmarshal([]byte(line), &env); err != nil {
		t.Fatalf("envelope is not valid JSON: %v\n%s", err, line)
	}
	env["elapsed_ms"] = 0
	if shards, ok := env["shards"].([]any); ok {
		for _, s := range shards {
			s.(map[string]any)["elapsed_ns"] = 0
		}
	}
	got, err := json.MarshalIndent(env, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "envelope_connect.golden")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("-connect envelope drifted from %s (regenerate deliberately with -update):\n--- got\n%s--- want\n%s",
			golden, got, want)
	}
}

// -h prints usage and must exit 0 (flag.ErrHelp is not a parse error).
func TestHelpExitsZero(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-h"}, &out, &errOut); code != 0 {
		t.Errorf("run(-h) = %d, want 0; stderr: %s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "-list") {
		t.Errorf("-h did not print flag usage: %s", errOut.String())
	}
}
