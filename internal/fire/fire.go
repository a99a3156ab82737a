// Package fire reimplements FIRE (Functional Imaging in REaltime), the
// software package developed at the Institute of Medicine of the
// Research Centre Jülich for online analysis of fMRI measurements, as
// described in section 4 of the paper.
//
// The analysis modules the scenarios run are real algorithms operating
// on real (synthetic) data:
//
//   - 3-D movement correction by an iterative linear (Gauss-Newton)
//     scheme, and
//   - voxel-wise correlation of the measured signal with a reference
//     vector (the stimulation time course convolved with a hemodynamic
//     response function).
//
// Table 1's three module costs — the median filter, motion correction
// and reference-vector optimization (RVO) — come from the calibrated
// Cray T3E-600 cost model in cost.go, not from running those modules.
//
// The package also contains the RT-server/RT-client pair (a TCP
// protocol mirroring FIRE's scanner front-end interface) and pipelined
// and unpipelined session drivers.
package fire
