package battery

import (
	"math"
	"testing"
	"time"
)

func TestProfileValidate(t *testing.T) {
	if err := TypicalPhone().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Profile{
		{CapacityMAh: 1, VoltageV: 1, RecognitionShare: 1},
		{Name: "x", VoltageV: 1, RecognitionShare: 1},
		{Name: "x", CapacityMAh: 1, RecognitionShare: 1},
		{Name: "x", CapacityMAh: 1, VoltageV: 1},
		{Name: "x", CapacityMAh: 1, VoltageV: 1, RecognitionShare: 1.5},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad profile %d accepted", i)
		}
	}
}

func TestBudgetMJ(t *testing.T) {
	p := Profile{Name: "x", CapacityMAh: 1000, VoltageV: 4, RecognitionShare: 0.5}
	// 1000 mAh × 3.6 × 4 V × 1000 × 0.5 = 7,200,000 mJ = 7.2 kJ.
	if got := p.BudgetMJ(); math.Abs(got-7.2e6) > 1 {
		t.Fatalf("budget = %v", got)
	}
}

func TestFramesAndRuntimeOnCharge(t *testing.T) {
	p := Profile{Name: "x", CapacityMAh: 1000, VoltageV: 4, RecognitionShare: 0.5}
	frames := p.FramesOnCharge(100) // 7.2e6 / 100 = 72000 frames
	if math.Abs(frames-72000) > 1 {
		t.Fatalf("frames = %v", frames)
	}
	// 72000 frames at 15 fps = 4800 s = 80 min.
	rt := p.RuntimeOnCharge(100, 15)
	if d := rt - 80*time.Minute; d < -time.Second || d > time.Second {
		t.Fatalf("runtime = %v", rt)
	}
	if p.FramesOnCharge(0) != 0 {
		t.Fatal("zero energy should give zero frames (avoid Inf)")
	}
	if p.RuntimeOnCharge(100, 0) != 0 {
		t.Fatal("zero fps should give zero runtime")
	}
}
