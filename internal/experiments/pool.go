package experiments

import (
	"runtime"
	"sync"

	"fpvm/internal/workloads"
)

// forEachWorkload runs fn over every workload on a bounded worker pool, each
// with the one image built from it and its native reference (workloadImage),
// and returns the results in input order. Each experiment cell owns its
// machines, VMs, and arenas, so cells are independent and the *simulated*
// cycle counts are identical to a sequential run — only wall-clock time
// changes. workers <= 0 selects
// GOMAXPROCS. Errors do not cancel in-flight cells (they are short); the
// first error in input order is returned after all workers drain.
func forEachWorkload[R any](workers int, items []workloads.Workload, fn func(workloads.Workload, *cellImage) (R, error)) ([]R, error) {
	cell := func(i int) (r R, err error) {
		img, err := workloadImage(items[i])
		if err != nil {
			return r, err
		}
		return fn(items[i], img)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(items) {
		workers = len(items)
	}
	results := make([]R, len(items))
	errs := make([]error, len(items))
	if workers <= 1 {
		for i := range items {
			results[i], errs[i] = cell(i)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					results[i], errs[i] = cell(i)
				}
			}()
		}
		for i := range items {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
