package eval

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestParallelEachRunsEveryIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const n = 37
			var hits [n]atomic.Int32
			if err := parallelEach(n, workers, func(i int) error {
				hits[i].Add(1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("index %d ran %d times", i, got)
				}
			}
		})
	}
}

func TestParallelEachFirstErrorByIndexWins(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	err := parallelEach(10, 4, func(i int) error {
		switch i {
		case 3:
			return errA
		case 7:
			return errB
		}
		return nil
	})
	if !errors.Is(err, errA) {
		t.Fatalf("err = %v, want the lowest-index error %v", err, errA)
	}
}

func TestParallelEachZeroItems(t *testing.T) {
	if err := parallelEach(0, 4, func(int) error {
		t.Error("fn called for n=0")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestScaleWorkers(t *testing.T) {
	if got := (Scale{}).workers(); got != 1 {
		t.Fatalf("zero value workers = %d, want 1", got)
	}
	if got := (Scale{Workers: 6}).workers(); got != 6 {
		t.Fatalf("explicit workers = %d, want 6", got)
	}
	if got := (Scale{Workers: -1}).workers(); got < 1 {
		t.Fatalf("NumCPU workers = %d, want >= 1", got)
	}
}

// TestRunExperimentsParallelMatchesSerial is the determinism guarantee
// behind `approxbench -parallel`: every experiment owns its virtual
// clock and RNGs, so worker count must not change a single table cell.
func TestRunExperimentsParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several experiments twice")
	}
	var exps []Experiment
	for _, id := range []string{"E1", "E2", "E3", "E5"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		exps = append(exps, e)
	}
	serial := Scale{Frames: 120, Seed: 7, Workers: 1}
	parallel := Scale{Frames: 120, Seed: 7, Workers: 4}
	want, err := RunExperiments(exps, serial)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunExperiments(exps, parallel)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d reports, want %d", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("report %s differs between serial and parallel runs:\nserial:   %v\nparallel: %v",
				want[i].ID, want[i], got[i])
		}
	}
}

// TestWallClockExperimentsRunAlone: under -parallel the simulations
// still fan out, but an experiment that reports elapsed time must see
// nothing else in flight from start to finish — that is what makes a
// -json taken with -parallel the number a serial run would gate.
func TestWallClockExperimentsRunAlone(t *testing.T) {
	const sims = 4
	var inflight atomic.Int32
	var allSimsIn sync.WaitGroup
	allSimsIn.Add(sims)
	sim := func(id string) Experiment {
		return Experiment{ID: id, Run: func(Scale) (Report, error) {
			inflight.Add(1)
			defer inflight.Add(-1)
			// Hold until every simulation is in flight: the batch really
			// runs sims-wide.
			allSimsIn.Done()
			allSimsIn.Wait()
			return Report{ID: id}, nil
		}}
	}
	wall := func(id string) Experiment {
		return Experiment{ID: id, WallClock: true, Run: func(Scale) (Report, error) {
			atStart := inflight.Add(1)
			defer inflight.Add(-1)
			// No event marks "nobody joined"; give a neighbour time to.
			time.Sleep(10 * time.Millisecond)
			if atEnd := inflight.Load(); atStart != 1 || atEnd != 1 {
				return Report{}, fmt.Errorf("ran beside other experiments (%d in flight at start, %d at end)", atStart, atEnd)
			}
			return Report{ID: id}, nil
		}}
	}
	exps := []Experiment{wall("W1"), sim("S1"), sim("S2"), wall("W2"), sim("S3"), sim("S4")}
	reports, err := RunExperiments(exps, Scale{Frames: 1, Workers: sims})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range reports {
		if r.ID != exps[i].ID {
			t.Fatalf("report %d is %q, want %q (input order)", i, r.ID, exps[i].ID)
		}
	}
	for _, id := range []string{"E7", "E20", "E21", "E22"} {
		if e, err := ByID(id); err != nil || !e.WallClock {
			t.Fatalf("%s not marked wall-clock (err %v)", id, err)
		}
	}
}
