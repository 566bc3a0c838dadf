package eval

import (
	"fmt"
	"sync"
)

// parallelEach runs fn(0..n-1) across workers goroutines (one when
// workers < 1) and waits for all of them. Work items must be
// independent — every sweep point and experiment in this package builds
// its own virtual clock, RNGs, and network, so running them concurrently
// cannot change their results, only the wall time.
func parallelEach(n, workers int, fn func(i int)) {
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < max(workers, 1); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// RunExperiments validates s, executes exps at that scale and returns
// their reports in the input order. It is where input is checked: it
// refuses a non-positive frame count, and a frame count below what any
// of exps needs, before one starts. Simulation experiments fan out
// across s.Workers goroutines; their reports are identical to a serial
// run, since parallelism never reorders rows or perturbs a simulation.
// Wall-clock experiments run afterwards, one at a time, so the elapsed
// time they report is never taken beside another experiment.
func RunExperiments(exps []Experiment, s Scale) ([]Report, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	for _, e := range exps {
		if s.Frames < e.minFrames {
			return nil, fmt.Errorf("eval: %s needs ≥ %d frames, got %d", e.what, e.minFrames, s.Frames)
		}
	}
	reports := make([]Report, len(exps))
	var sims, timed []int
	for i, e := range exps {
		if e.WallClock {
			timed = append(timed, i)
		} else {
			sims = append(sims, i)
		}
	}
	parallelEach(len(sims), s.Workers, func(k int) { reports[sims[k]] = exps[sims[k]].Run(s) })
	for _, i := range timed {
		reports[i] = exps[i].Run(s)
	}
	return reports, nil
}
