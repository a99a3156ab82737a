package bwin

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultSaturatesBeforeUpgrade(t *testing.T) {
	m := DefaultBWiN()
	// The paper (written 1999): "the current infrastructure will
	// reach its limit in the next year", with the upgrade planned for
	// the beginning of 2000.
	y, err := m.SaturationYear(AccessCapacityMbps)
	if err != nil {
		t.Fatal(err)
	}
	if y < 1998.8 || y > 2000.2 {
		t.Errorf("B-WiN saturation year = %.2f, want ~1999-2000", y)
	}
}

func TestGigabitBuysYears(t *testing.T) {
	m := DefaultBWiN()
	h, err := m.HeadroomYears(AccessCapacityMbps, GigabitCapacityMbps)
	if err != nil {
		t.Fatal(err)
	}
	// 2400/155 at doubling: log2(15.5) ~ 3.95 years of headroom.
	if math.Abs(h-math.Log2(GigabitCapacityMbps/155.0)) > 1e-9 {
		t.Errorf("headroom = %.2f years", h)
	}
}

func TestDemandGrowth(t *testing.T) {
	m := DefaultBWiN()
	if d := m.DemandAt(1997); d != 39 {
		t.Errorf("base demand = %v", d)
	}
	if d := m.DemandAt(1998); math.Abs(d-78) > 1e-9 {
		t.Errorf("1998 demand = %v", d)
	}
	flat := TrafficModel{BaseYear: 1997, BaseMbps: 10, AnnualGrowth: 0}
	if flat.DemandAt(2005) != 10 {
		t.Error("zero-growth model should stay flat")
	}
}

func TestSaturationEdgeCases(t *testing.T) {
	m := DefaultBWiN()
	if _, err := m.SaturationYear(0); err == nil {
		t.Error("zero capacity accepted")
	}
	if y, err := m.SaturationYear(10); err != nil || y != m.BaseYear {
		t.Errorf("already-saturated: y=%v err=%v", y, err)
	}
	noGrowth := TrafficModel{BaseYear: 1997, BaseMbps: 10, AnnualGrowth: 1}
	if _, err := noGrowth.SaturationYear(100); err == nil {
		t.Error("non-growing model claims saturation")
	}
}

// Property: the demand at the saturation year equals the capacity.
func TestSaturationConsistency(t *testing.T) {
	f := func(baseRaw, capRaw uint16) bool {
		base := 1 + float64(baseRaw%1000)
		cap := base + 1 + float64(capRaw%10000)
		m := TrafficModel{BaseYear: 1997, BaseMbps: base, AnnualGrowth: 2}
		y, err := m.SaturationYear(cap)
		if err != nil {
			return false
		}
		return math.Abs(m.DemandAt(y)-cap) < 1e-6*cap
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// DemandAt extrapolates the demand in Mbit/s at the given (fractional)
// year.
func (m TrafficModel) DemandAt(year float64) float64 {
	if m.AnnualGrowth <= 0 {
		return m.BaseMbps
	}
	return m.BaseMbps * math.Pow(m.AnnualGrowth, year-m.BaseYear)
}
