package fire

import (
	"bytes"
	"math"
	"net"
	"testing"

	"repro/internal/mri"
	"repro/internal/volume"
)

func TestProtoImageRoundTrip(t *testing.T) {
	v := volume.New(4, 3, 2)
	for i := range v.Data {
		v.Data[i] = float32(i) * 1.5
	}
	var buf bytes.Buffer
	rt := NewConn(&buf)
	if err := rt.WriteImage(7, v); err != nil {
		t.Fatal(err)
	}
	msg, err := rt.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != MsgImage || msg.Scan != 7 {
		t.Fatalf("msg = %+v", msg)
	}
	if !msg.Image.SameShape(v) {
		t.Fatal("shape lost")
	}
	for i := range v.Data {
		if msg.Image.Data[i] != v.Data[i] {
			t.Fatalf("voxel %d: %v != %v", i, msg.Image.Data[i], v.Data[i])
		}
	}
}

func TestProtoControlRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	rt := NewConn(&buf)
	if err := rt.WriteRequest(); err != nil {
		t.Fatal(err)
	}
	if err := rt.WriteDone(); err != nil {
		t.Fatal(err)
	}
	m1, err := rt.ReadMessage()
	if err != nil || m1.Type != MsgRequest {
		t.Fatalf("m1 = %+v err=%v", m1, err)
	}
	m2, err := rt.ReadMessage()
	if err != nil || m2.Type != MsgDone {
		t.Fatalf("m2 = %+v err=%v", m2, err)
	}
}

func TestProtoRejectsGarbage(t *testing.T) {
	buf := bytes.NewBuffer(make([]byte, headerSize)) // zero magic
	if _, err := NewConn(buf).ReadMessage(); err == nil {
		t.Error("zero-magic header accepted")
	}
}

func TestProtoRejectsTruncated(t *testing.T) {
	v := volume.New(4, 4, 4)
	var buf bytes.Buffer
	if err := NewConn(&buf).WriteImage(0, v); err != nil {
		t.Fatal(err)
	}
	trunc := bytes.NewBuffer(buf.Bytes()[:buf.Len()-10])
	if _, err := NewConn(trunc).ReadMessage(); err == nil {
		t.Error("truncated image accepted")
	}
}

// imageHeader encodes an image header announcing the given dims and
// payload, the only bytes a peer needs to send to make ReadMessage size
// an allocation.
func imageHeader(nx, ny, nz uint16, payload uint32) []byte {
	buf := make([]byte, headerSize)
	putHeader(buf, header{Magic: rtMagic, Type: MsgImage, NX: nx, NY: ny, NZ: nz, Payload: payload})
	return buf
}

// TestProtoRejectsOversizedImage: a bare 24-byte header announcing a
// 1024^3 image with payload 0 used to pass the size check (4*nvox
// wrapped to 0 in 32 bits), allocate a 4 GiB volume and panic indexing
// the empty payload. Every header whose image exceeds maxImageVoxels,
// or whose payload disagrees with its dims in 64-bit arithmetic, is now
// an error before anything is allocated.
func TestProtoRejectsOversizedImage(t *testing.T) {
	for _, c := range []struct {
		nx, ny, nz uint16
		payload    uint32
	}{
		{1024, 1024, 1024, 0},                // 4*2^30 wraps to 0
		{1024, 1024, 1024, 1 << 31},          // wraps to 2^31 at other widths
		{65535, 65535, 65535, 0},             // the largest dims the header holds
		{4096, 4096, 2, 4 * 4096 * 4096 * 2}, // consistent, but over the limit
	} {
		_, err := NewConn(bytes.NewBuffer(imageHeader(c.nx, c.ny, c.nz, c.payload))).ReadMessage()
		if err == nil {
			t.Errorf("%dx%dx%d image with payload %d accepted", c.nx, c.ny, c.nz, c.payload)
		}
	}
	// The sender refuses what the receiver would refuse.
	if err := NewConn(new(bytes.Buffer)).WriteImage(0, volume.New(4096, 4096, 2)); err == nil {
		t.Error("WriteImage sent an image over maxImageVoxels")
	}
	if err := NewConn(new(bytes.Buffer)).WriteImage(0, volume.New(1<<16, 1, 1)); err == nil {
		t.Error("WriteImage sent an axis the header cannot hold")
	}
}

// TestProtoReusesImage: a connection decodes every image into one
// volume while the shape holds, and into a new one when it changes.
func TestProtoReusesImage(t *testing.T) {
	var buf bytes.Buffer
	rt := NewConn(&buf)
	a, b := volume.New(4, 3, 2), volume.New(2, 2, 2)
	a.Fill(1)
	b.Fill(2)
	for _, v := range []*volume.Volume{a, a, b} {
		if err := rt.WriteImage(0, v); err != nil {
			t.Fatal(err)
		}
	}
	m1, _ := rt.ReadMessage()
	m2, _ := rt.ReadMessage()
	if m1.Image != m2.Image {
		t.Error("same-shape images decoded into different volumes")
	}
	m3, err := rt.ReadMessage()
	if err != nil || !m3.Image.SameShape(b) || m3.Image.Data[0] != 2 {
		t.Fatalf("reshaped image = %+v, %v", m3.Image, err)
	}
}

// TestRTServerClientEndToEnd runs a real scanner -> RT-server ->
// RT-client -> correlation session over TCP on localhost.
func TestRTServerClientEndToEnd(t *testing.T) {
	act := mri.Activation{CX: 8, CY: 8, CZ: 4, Radius: 2.5, Amplitude: 0.06, HRF: mri.DefaultHRF}
	ph := mri.NewPhantom(16, 16, 8, []mri.Activation{act})
	nScans := 24
	cfg := mri.ScanConfig{NX: 16, NY: 16, NZ: 8, TR: 2, NScans: nScans, NoiseStd: 1, Seed: 21}
	sc := mri.NewScanner(ph, cfg)
	srv := &RTServer{Scanner: sc}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	serveErr := make(chan error, 1)
	served := make(chan int, 1)
	go func() {
		n, err := srv.ListenAndServe(l)
		served <- n
		serveErr <- err
	}()

	client, err := DialRT(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ref := sc.Reference(0)
	corr := NewCorrelator(ref, 16, 16, 8)
	frames := 0
	for {
		msg, err := client.NextImage()
		if err != nil {
			t.Fatal(err)
		}
		if msg.Type == MsgDone {
			break
		}
		if msg.Scan != frames {
			t.Fatalf("scan index %d, want %d", msg.Scan, frames)
		}
		if err := corr.Add(msg.Image); err != nil {
			t.Fatal(err)
		}
		frames++
	}
	if frames != nScans {
		t.Fatalf("received %d frames, want %d", frames, nScans)
	}
	if n := <-served; n != nScans {
		t.Errorf("server served %d", n)
	}
	if err := <-serveErr; err != nil {
		t.Errorf("server error: %v", err)
	}
	m, err := corr.Map()
	if err != nil {
		t.Fatal(err)
	}
	if r := m.At(8, 8, 4); r < 0.7 {
		t.Errorf("end-to-end correlation at activation = %.3f", r)
	}
}

func TestPaperStageTimes(t *testing.T) {
	model := DefaultT3E600()
	st := PaperStageTimes(model, 256)
	// "a total delay of less than 5 seconds" with 256 PEs.
	if d := st.TotalDelay(); d >= 5.0 || d < 4.0 {
		t.Errorf("total delay at 256 PEs = %.2f s, want in [4, 5)", d)
	}
	// "the sum of the delays in the RT-client and the T3E, which is
	// 2.7 seconds in the above example".
	if p := st.UnpipelinedPeriod(); math.Abs(p-2.7) > 0.1 {
		t.Errorf("unpipelined period = %.2f s, want ~2.7", p)
	}
	// "the scanner can safely be operated with a repetition rate of
	// 3 seconds".
	if tr := SafeTR(st.UnpipelinedPeriod()); tr != 3.0 {
		t.Errorf("safe TR = %.1f s, want 3.0", tr)
	}
	// Pipelining would push the period down to the transfer stage.
	if p := st.PipelinedPeriod(); math.Abs(p-st.Transfers) > 1e-9 {
		t.Errorf("pipelined period = %.2f, want transfers-dominated %.2f", p, st.Transfers)
	}
}

func TestSimulateSessionUnpipelined(t *testing.T) {
	model := DefaultT3E600()
	st := PaperStageTimes(model, 256)
	res, err := SimulateSession(st, 3.0, 40, false)
	if err != nil {
		t.Fatal(err)
	}
	// At TR = 3 s the unpipelined chain (2.7 s) keeps up: no drops.
	if res.DroppedScans != 0 {
		t.Errorf("dropped %d scans at TR=3", res.DroppedScans)
	}
	if res.MaxDelay >= 5.0 {
		t.Errorf("max delay %.2f s, want < 5", res.MaxDelay)
	}
	if math.Abs(res.AchievedPeriod-3.0) > 0.05 {
		t.Errorf("achieved period %.2f, want scanner-limited 3.0", res.AchievedPeriod)
	}
}

func TestSimulateSessionDropsAtFastTR(t *testing.T) {
	model := DefaultT3E600()
	st := PaperStageTimes(model, 256)
	// TR = 2 s is faster than the 2.7 s unpipelined period: the
	// online analysis must skip scans.
	res, err := SimulateSession(st, 2.0, 40, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.DroppedScans == 0 {
		t.Error("expected dropped scans at TR=2 with 2.7 s period")
	}
}

func TestSimulateSessionPipelinedKeepsUp(t *testing.T) {
	model := DefaultT3E600()
	st := PaperStageTimes(model, 256)
	// Pipelined, the bottleneck stage is 1.1 s < TR = 2 s: no drops.
	res, err := SimulateSession(st, 2.0, 40, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.DroppedScans != 0 {
		t.Errorf("pipelined session dropped %d scans at TR=2", res.DroppedScans)
	}
	if math.Abs(res.AchievedPeriod-2.0) > 0.05 {
		t.Errorf("pipelined achieved period %.2f, want 2.0", res.AchievedPeriod)
	}
}

func TestSimulateSessionValidation(t *testing.T) {
	st := StageTimes{ScanToServer: 1, Transfers: 1, Compute: 1, Display: 1}
	if _, err := SimulateSession(st, 0, 10, false); err == nil {
		t.Error("tr=0 accepted")
	}
	if _, err := SimulateSession(st, 2, 0, false); err == nil {
		t.Error("frames=0 accepted")
	}
}

func TestSafeTRRounding(t *testing.T) {
	if SafeTR(2.7) != 3.0 {
		t.Errorf("SafeTR(2.7) = %v", SafeTR(2.7))
	}
	if SafeTR(3.0) != 3.0 {
		t.Errorf("SafeTR(3.0) = %v", SafeTR(3.0))
	}
	if SafeTR(3.01) != 3.5 {
		t.Errorf("SafeTR(3.01) = %v", SafeTR(3.01))
	}
}

// FuzzReadMessage feeds arbitrary bytes to a connection and reads
// messages until one fails. Reading must never panic, and every image
// it accepts must round-trip: WriteImage of the decoded volume and scan
// reproduces the message's bytes exactly (NaN payloads included), but
// for the header's pad bytes, which the reader ignores.
//
// The seed corpus in testdata/fuzz/FuzzReadMessage (every message type,
// odd floats, reshaped and back-to-back images, and the headers that
// are refused: the 1024^3 image that announces no payload, truncated,
// inconsistent and unknown messages) replays in every plain go test.
func FuzzReadMessage(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		src := bytes.NewBuffer(in)
		rt := NewConn(src)
		for {
			start := len(in) - src.Len()
			msg, err := rt.ReadMessage()
			if err != nil {
				return
			}
			if msg.Type != MsgImage {
				continue
			}
			var out bytes.Buffer
			if err := NewConn(&out).WriteImage(msg.Scan, msg.Image); err != nil {
				t.Fatalf("accepted %dx%dx%d image cannot be written back: %v", msg.Image.NX, msg.Image.NY, msg.Image.NZ, err)
			}
			want := bytes.Clone(in[start : len(in)-src.Len()])
			clear(want[5:8]) // pad bytes
			clear(want[18:20])
			if !bytes.Equal(out.Bytes(), want) {
				t.Fatalf("image of scan %d does not round-trip:\nread  %x\nwrote %x", msg.Scan, want, out.Bytes())
			}
		}
	})
}
