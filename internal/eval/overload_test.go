package eval

import (
	"strings"
	"testing"
	"time"
)

func TestOverloadUnknownMode(t *testing.T) {
	var sw overloadSweep
	if _, _, err := sw.node("warp-drive"); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

func TestDurPctMS(t *testing.T) {
	if got := durPctMS(nil, 99); got != 0 {
		t.Fatalf("empty percentile = %v", got)
	}
	sorted := []time.Duration{time.Millisecond, 2 * time.Millisecond, 10 * time.Millisecond}
	if got := durPctMS(sorted, 0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
	if got := durPctMS(sorted, 100); got != 10 {
		t.Fatalf("p100 = %v", got)
	}
}

// TestE21Small runs the registered experiment at small scale. Like
// E20, it sleeps real accelerator occupancy and offers real wall-clock
// load, so it is skipped under -short.
func TestE21Small(t *testing.T) {
	if testing.Short() {
		t.Skip("E21 offers real wall-clock load")
	}
	rep, err := E21Overload(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * len(overloadLoads); len(rep.Rows) != want {
		t.Fatalf("%d rows, want %d", len(rep.Rows), want)
	}
	var foundRetention bool
	for _, n := range rep.Notes {
		if strings.Contains(n, "retention") {
			foundRetention = true
		}
	}
	if !foundRetention {
		t.Fatalf("notes missing retention: %v", rep.Notes)
	}
	for _, row := range rep.Rows {
		if row[0] != OverloadResilient && row[0] != overloadUnprotected {
			t.Fatalf("unknown mode in row: %v", row)
		}
	}
}
