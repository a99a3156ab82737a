package fire

import (
	"context"
	"fmt"

	"repro/internal/volume"
)

// Result is what a realtime session produced.
type Result struct {
	// Corr is the voxel-wise correlation coefficient map in [-1, 1]
	// over every scan of the measurement.
	Corr *volume.Volume
	// Shifts are the rigid motion estimates removed from the scans, in
	// the order the scans arrived.
	Shifts [][3]float64
}

// RunSession is the RT-client loop FIRE runs within the 2-second
// acquisition time: it pulls raw images from client until the RT-server
// signals the end of the measurement, removes each scan's 3-D motion
// against motionRef, and folds the corrected scan into the incremental
// correlation with the normalized reference vector ref. Every scan must
// have motionRef's matrix. ctx is checked before each scan, and the
// correlation map is computed once, after the last.
func RunSession(ctx context.Context, client *RTClient, ref []float64, motionRef *volume.Volume) (*Result, error) {
	if client == nil {
		return nil, fmt.Errorf("fire: session has no RT client")
	}
	if len(ref) == 0 {
		return nil, fmt.Errorf("fire: session has no reference vector")
	}
	if motionRef == nil {
		return nil, fmt.Errorf("fire: session has no motion reference")
	}
	nx, ny, nz := motionRef.NX, motionRef.NY, motionRef.NZ
	corr := NewCorrelator(ref, nx, ny, nz)
	res := &Result{}
	var fixed *volume.Volume // the motion-corrected scan, reused every scan
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		msg, err := client.NextImage()
		if err != nil {
			return nil, err
		}
		if msg.Type == MsgDone {
			break
		}
		img := msg.Image
		if img.NX != nx || img.NY != ny || img.NZ != nz {
			return nil, fmt.Errorf("fire: scan %d has shape %dx%dx%d, session expects %dx%dx%d",
				msg.Scan, img.NX, img.NY, img.NZ, nx, ny, nz)
		}
		var shift [3]float64
		fixed, shift, err = MotionCorrect(fixed, motionRef, img, MotionOptions{})
		if err != nil {
			return nil, fmt.Errorf("fire: scan %d motion correction: %w", msg.Scan, err)
		}
		if err := corr.Add(fixed); err != nil {
			return nil, err
		}
		res.Shifts = append(res.Shifts, shift)
	}
	var err error
	if res.Corr, err = corr.Map(); err != nil {
		return nil, err
	}
	return res, nil
}
