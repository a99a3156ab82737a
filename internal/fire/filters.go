package fire

import (
	"sort"

	"repro/internal/volume"
)

// MedianFilter3D applies a (2r+1)^3 median filter with edge clamping —
// FIRE's noise-reduction stage for unprocessed images.
func MedianFilter3D(v *volume.Volume, r int) *volume.Volume {
	if r <= 0 {
		return v.Clone()
	}
	out := volume.New(v.NX, v.NY, v.NZ)
	win := make([]float32, 0, (2*r+1)*(2*r+1)*(2*r+1))
	for z := 0; z < v.NZ; z++ {
		for y := 0; y < v.NY; y++ {
			for x := 0; x < v.NX; x++ {
				win = win[:0]
				for dz := -r; dz <= r; dz++ {
					zz := clampIdx(z+dz, v.NZ)
					for dy := -r; dy <= r; dy++ {
						yy := clampIdx(y+dy, v.NY)
						for dx := -r; dx <= r; dx++ {
							xx := clampIdx(x+dx, v.NX)
							win = append(win, v.At(xx, yy, zz))
						}
					}
				}
				sort.Slice(win, func(i, j int) bool { return win[i] < win[j] })
				out.Set(x, y, z, win[len(win)/2])
			}
		}
	}
	return out
}

func clampIdx(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}
