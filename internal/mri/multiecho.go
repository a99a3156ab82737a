package mri

import "fmt"

// Multi-echo imaging: the paper closes section 4 noting that "advanced
// MR imaging techniques which are under development [single-shot
// multi-echo fMRI, ref 9] will produce data rates that are an order of
// magnitude beyond what is feasible today. Analysing this data in
// realtime will be a challenging task for a supercomputer again."
// MultiEcho quantifies that claim against the T3E cost model.

// MultiEcho describes an advanced acquisition.
type MultiEcho struct {
	// Echoes is the number of echoes acquired per excitation
	// (single-shot multi-echo EPI; ref [9] used up to ~8).
	Echoes int
	// NX, NY, NZ is the image matrix per echo.
	NX, NY, NZ int
	// TR is the volume repetition time in seconds.
	TR float64
}

// StandardAcquisition is the paper's baseline: 64x64x16 single-echo at
// TR 2 s.
func StandardAcquisition() MultiEcho {
	return MultiEcho{Echoes: 1, NX: 64, NY: 64, NZ: 16, TR: 2}
}

// ReferenceMultiEcho is the ref-[9]-style acquisition: 8 echoes on a
// doubled in-plane matrix at the same TR.
func ReferenceMultiEcho() MultiEcho {
	return MultiEcho{Echoes: 8, NX: 128, NY: 128, NZ: 16, TR: 2}
}

// Validate checks the configuration.
func (a MultiEcho) Validate() error {
	if a.Echoes < 1 || a.NX < 1 || a.NY < 1 || a.NZ < 1 || a.TR <= 0 {
		return fmt.Errorf("mri: invalid acquisition %+v", a)
	}
	return nil
}

// VoxelsPerVolume reports voxels acquired per TR (all echoes).
func (a MultiEcho) VoxelsPerVolume() int { return a.Echoes * a.NX * a.NY * a.NZ }

// DataRateBps reports the raw acquisition data rate in bit/s at 4
// bytes per voxel.
func (a MultiEcho) DataRateBps() float64 {
	return float64(a.VoxelsPerVolume()) * 4 * 8 / a.TR
}
