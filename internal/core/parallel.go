package core

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/stream"
)

// streamErr pairs a failed stream with its error so the propagated
// error is deterministic regardless of worker scheduling.
type streamErr struct {
	id  stream.ID
	err error
}

// CalUBatchParallel computes the delay upper bound of each of ids over
// a pool of workers (workers <= 0 uses GOMAXPROCS); the returned slice
// aligns with ids. Every call borrows a pooled arena, so a batch reuses
// the scratch earlier batches grew. The incremental admission
// controller (package admit) uses this to recompute only the dirty set
// of a mutation (see Dependents) through the pooled path.
//
// The error semantics are calUPool's.
func (a *Analyzer) CalUBatchParallel(ids []stream.ID, workers int) ([]int, error) {
	for _, id := range ids {
		if a.Set.Get(id) == nil {
			return nil, fmt.Errorf("core: no stream %d", id)
		}
		// Materialize each batch member's HP set before the fan-out:
		// lazy fills (Extend-built analyzers) are not synchronized, and
		// each worker only ever reads the rows of its own ids.
		a.hp(int(id))
	}
	us, err := calUPool(ids, workers, a.CalU)
	if err != nil {
		return nil, fmt.Errorf("core: parallel calU: %w", err)
	}
	return us, nil
}

// calUPool fans calU over ids from a pool of workers, returning the
// bounds aligned with ids. Tests inject failing calU implementations to
// pin the error-path semantics:
//
//   - any calU error makes the whole call return (nil, error) — a
//     partially-filled slice never escapes, so the zero bounds of
//     unprocessed streams can never masquerade as results;
//   - after the first failure the remaining jobs are skipped rather
//     than computed (their bounds would be discarded anyway);
//   - among the failures actually observed, the smallest stream ID's
//     error is propagated, so a single failing stream (the common
//     case) reports identically for every worker count and schedule.
//
// The returned error names that stream and wraps its calU error.
func calUPool(ids []stream.ID, workers int, calU func(stream.ID) (int, error)) ([]int, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(ids) {
		workers = len(ids)
	}
	us := make([]int, len(ids))
	// Buffered so the producer never blocks even if workers bail out
	// early.
	jobs := make(chan int, len(ids))
	errs := make(chan streamErr, len(ids))
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range jobs {
				if failed.Load() {
					continue // drain: the result is already doomed
				}
				u, err := calU(ids[k])
				if err != nil {
					failed.Store(true)
					errs <- streamErr{ids[k], err}
					continue
				}
				// us slots are disjoint per job index; wg.Wait orders the reads.
				us[k] = u
			}
		}()
	}
	for k := range ids {
		jobs <- k
	}
	close(jobs)
	wg.Wait()
	close(errs)
	// The error check must precede any use of us: once any stream
	// failed, zero-valued slots of skipped streams carry no meaning.
	var fails []streamErr
	for e := range errs {
		fails = append(fails, e)
	}
	if len(fails) > 0 {
		sort.Slice(fails, func(i, j int) bool { return fails[i].id < fails[j].id })
		return nil, fmt.Errorf("stream %d: %w", fails[0].id, fails[0].err)
	}
	return us, nil
}
