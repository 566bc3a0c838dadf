// Package battery models a smartphone battery as an energy budget, so
// the evaluation can translate per-frame energy into the number the
// user actually feels: how long continuous recognition runs on one
// charge.
package battery

import (
	"fmt"
	"time"
)

// Profile describes a battery.
type Profile struct {
	// Name identifies the battery in reports.
	Name string
	// CapacityMAh is the rated capacity in milliamp-hours.
	CapacityMAh float64
	// VoltageV is the nominal voltage.
	VoltageV float64
	// RecognitionShare is the fraction of the battery the
	// recognition workload may spend (screens, radios, and the OS
	// take the rest). In (0, 1].
	RecognitionShare float64
}

// Validate reports whether the profile is usable.
func (p Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("battery: profile needs a name")
	}
	if p.CapacityMAh <= 0 {
		return fmt.Errorf("battery: capacity must be positive, got %v", p.CapacityMAh)
	}
	if p.VoltageV <= 0 {
		return fmt.Errorf("battery: voltage must be positive, got %v", p.VoltageV)
	}
	if p.RecognitionShare <= 0 || p.RecognitionShare > 1 {
		return fmt.Errorf("battery: recognition share must be in (0,1], got %v",
			p.RecognitionShare)
	}
	return nil
}

// TypicalPhone is a 2020-era mid-range phone battery: 3500 mAh at
// 3.85 V with 30% of the charge budgeted to the recognition app.
func TypicalPhone() Profile {
	return Profile{
		Name:             "typical-phone",
		CapacityMAh:      3500,
		VoltageV:         3.85,
		RecognitionShare: 0.3,
	}
}

// BudgetMJ returns the recognition energy budget in millijoules:
// mAh × 3.6 gives coulombs (A·s scaled to mA·h), times volts gives
// joules, ×1000 for mJ, scaled by the recognition share.
func (p Profile) BudgetMJ() float64 {
	return p.CapacityMAh * 3.6 * p.VoltageV * 1000 * p.RecognitionShare
}

// FramesOnCharge returns how many frames a workload costing
// energyPerFrameMJ can process on one charge.
func (p Profile) FramesOnCharge(energyPerFrameMJ float64) float64 {
	if energyPerFrameMJ <= 0 {
		return 0
	}
	return p.BudgetMJ() / energyPerFrameMJ
}

// RuntimeOnCharge returns how long continuous recognition at fps runs
// on one charge.
func (p Profile) RuntimeOnCharge(energyPerFrameMJ float64, fps int) time.Duration {
	if fps <= 0 {
		return 0
	}
	frames := p.FramesOnCharge(energyPerFrameMJ)
	return time.Duration(frames / float64(fps) * float64(time.Second))
}
