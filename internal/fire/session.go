package fire

import (
	"fmt"

	"repro/internal/volume"
)

// RealtimeSession is the complete RT-client processing loop as a
// library component: pull raw images from an RT-server, run the
// realtime module chain (optional median filter, optional 3-D motion
// correction against a reference), fold each scan into the incremental
// correlation analysis, and hand every updated result to the display
// callback — the loop the FIRE GUI runs within the 2-second acquisition
// time.
type RealtimeSession struct {
	// Client is the connected RT image source.
	Client *RTClient
	// Reference is the normalized reference vector to correlate
	// against.
	Reference []float64
	// NX, NY, NZ is the expected acquisition matrix.
	NX, NY, NZ int

	// FilterRadius applies the median filter with this radius before
	// analysis (0 = off).
	FilterRadius int
	// MotionRef enables 3-D movement correction against this volume
	// (nil = off). Typically the first scan of the measurement.
	MotionRef *volume.Volume
	// Workers parallelizes the filter (0 = GOMAXPROCS).
	Workers int
	// MinScansForMap is the first scan count at which correlation
	// maps are produced (default 3, the statistical minimum).
	MinScansForMap int

	// OnFrame, if set, is called after every processed scan with the
	// current analysis state. A nil Corr means too few scans so far.
	OnFrame func(scan int, r *Result)
}

// Run processes the whole measurement and returns the number of scans
// analysed together with the final correlation result.
func (s *RealtimeSession) Run() (int, *Result, error) {
	if s.Client == nil {
		return 0, nil, fmt.Errorf("fire: session has no RT client")
	}
	if len(s.Reference) == 0 {
		return 0, nil, fmt.Errorf("fire: session has no reference vector")
	}
	if s.NX <= 0 || s.NY <= 0 || s.NZ <= 0 {
		return 0, nil, fmt.Errorf("fire: session matrix %dx%dx%d invalid", s.NX, s.NY, s.NZ)
	}
	if s.MinScansForMap == 0 {
		s.MinScansForMap = 3
	}
	corr := NewCorrelator(s.Reference, s.NX, s.NY, s.NZ)
	frames := 0
	var last *Result
	var fixed *volume.Volume // motion-corrected scan, reused every frame
	for {
		msg, err := s.Client.NextImage()
		if err != nil {
			return frames, last, err
		}
		if msg.Type == MsgDone {
			return frames, last, nil
		}
		img := msg.Image
		if img.NX != s.NX || img.NY != s.NY || img.NZ != s.NZ {
			return frames, last, fmt.Errorf("fire: scan %d has shape %dx%dx%d, session expects %dx%dx%d",
				msg.Scan, img.NX, img.NY, img.NZ, s.NX, s.NY, s.NZ)
		}
		if s.FilterRadius > 0 {
			img = ParallelMedianFilter3D(img, s.FilterRadius, s.Workers)
		}
		res := &Result{}
		if s.MotionRef != nil {
			fixed, res.Shift, err = MotionCorrect(fixed, s.MotionRef, img, MotionOptions{})
			if err != nil {
				return frames, last, fmt.Errorf("fire: scan %d motion correction: %w", msg.Scan, err)
			}
			img = fixed
		}
		if err := corr.Add(img); err != nil {
			return frames, last, err
		}
		frames++
		res.ScansUsed = corr.Scans()
		if corr.Scans() >= s.MinScansForMap {
			m, err := corr.Map()
			if err != nil {
				return frames, last, err
			}
			res.Corr = m
			last = res
		}
		if s.OnFrame != nil {
			s.OnFrame(msg.Scan, res)
		}
	}
}
