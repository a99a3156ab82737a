// Package fire reimplements FIRE (Functional Imaging in REaltime), the
// software package developed at the Institute of Medicine of the
// Research Centre Jülich for online analysis of fMRI measurements, as
// described in section 4 of the paper.
//
// The analysis modules are real algorithms operating on real (synthetic)
// data:
//
//   - a 3-D median filter for raw-image denoising,
//   - 3-D movement correction by an iterative linear (Gauss-Newton)
//     scheme,
//   - detrending against a small set of drift basis vectors,
//   - voxel-wise correlation of the measured signal with a reference
//     vector (the stimulation time course convolved with a hemodynamic
//     response function), and
//   - reference-vector optimization (RVO): a per-voxel least-squares
//     fit of HRF delay and dispersion by rastering the parameter space,
//     with the grid-refinement scheme the paper plans as future work.
//
// The package also contains the RT-server/RT-client pair (a TCP
// protocol mirroring FIRE's scanner front-end interface), pipelined and
// unpipelined session drivers, and the calibrated Cray T3E-600 cost
// model that reproduces Table 1.
package fire
