package eval

import (
	"fmt"
	"sync"
)

// parallelEach runs fn(0..n-1) across workers goroutines (one when
// workers < 1) and waits for all of them. Work items must be
// independent — every sweep point and experiment in this package builds
// its own virtual clock, RNGs, and network, so running them concurrently
// cannot change their results, only the wall time. The first error (by
// lowest index) wins.
func parallelEach(n, workers int, fn func(i int) error) error {
	errs := make([]error, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < max(workers, 1); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// RunExperiments validates s, executes exps at that scale and returns
// their reports in the input order. Simulation experiments fan out
// across s.Workers goroutines; their reports are identical to a serial
// run, since parallelism never reorders rows or perturbs a simulation.
// Wall-clock experiments run afterwards, one at a time, so the elapsed
// time they report is never taken beside another experiment.
func RunExperiments(exps []Experiment, s Scale) ([]Report, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	reports := make([]Report, len(exps))
	run := func(i int) error {
		r, err := exps[i].Run(s)
		if err != nil {
			return fmt.Errorf("%s: %w", exps[i].ID, err)
		}
		reports[i] = r
		return nil
	}
	var sims, timed []int
	for i, e := range exps {
		if e.WallClock {
			timed = append(timed, i)
		} else {
			sims = append(sims, i)
		}
	}
	if err := parallelEach(len(sims), s.Workers, func(k int) error { return run(sims[k]) }); err != nil {
		return nil, err
	}
	for _, i := range timed {
		if err := run(i); err != nil {
			return nil, err
		}
	}
	return reports, nil
}
