// Package bwin models the capacity-planning context of section 1: the
// German broadband scientific network (B-WiN, ATM-based since 1996,
// access capacities up to 155 Mbit/s) whose traffic growth made the
// DFN-Verein plan a national gigabit upgrade for the year 2000 —
// "extrapolations of the growth rates of the last years show that the
// current infrastructure will reach its limit in the next year".
//
// The model is the standard exponential-growth extrapolation used for
// such planning, plus the saturation-year arithmetic that motivated the
// two gigabit testbeds.
package bwin

import (
	"fmt"
	"math"
)

// TrafficModel extrapolates network demand exponentially.
type TrafficModel struct {
	// BaseYear anchors the extrapolation.
	BaseYear float64
	// BaseMbps is the peak demand in the base year.
	BaseMbps float64
	// AnnualGrowth is the yearly multiplication factor (2 = doubling).
	AnnualGrowth float64
}

// DefaultBWiN returns the growth picture of the late-1990s German
// scientific network: ~39 Mbit/s of peak demand in 1997, doubling
// yearly — which saturates the 155 Mbit/s access infrastructure around
// the end of 1999, matching the paper's "will reach its limit in the
// next year" and the upgrade planned for the beginning of 2000.
func DefaultBWiN() TrafficModel {
	return TrafficModel{BaseYear: 1997, BaseMbps: 39, AnnualGrowth: 2.0}
}

// AccessCapacityMbps is the B-WiN access limit ("up to 155 Mbit/s").
const AccessCapacityMbps = 155

// GigabitCapacityMbps is the planned upgrade capacity (the testbed's
// 2.4 Gbit/s payload class).
const GigabitCapacityMbps = 2400

// SaturationYear reports the (fractional) year at which demand reaches
// the given capacity, or an error when the model never reaches it.
func (m TrafficModel) SaturationYear(capacityMbps float64) (float64, error) {
	if capacityMbps <= 0 {
		return 0, fmt.Errorf("bwin: non-positive capacity %v", capacityMbps)
	}
	if m.BaseMbps >= capacityMbps {
		return m.BaseYear, nil
	}
	if m.AnnualGrowth <= 1 {
		return 0, fmt.Errorf("bwin: growth factor %v never saturates %v Mbit/s", m.AnnualGrowth, capacityMbps)
	}
	years := math.Log(capacityMbps/m.BaseMbps) / math.Log(m.AnnualGrowth)
	return m.BaseYear + years, nil
}

// HeadroomYears reports how much longer the upgrade buys compared to
// the old capacity under the same growth.
func (m TrafficModel) HeadroomYears(oldCap, newCap float64) (float64, error) {
	y1, err := m.SaturationYear(oldCap)
	if err != nil {
		return 0, err
	}
	y2, err := m.SaturationYear(newCap)
	if err != nil {
		return 0, err
	}
	return y2 - y1, nil
}
