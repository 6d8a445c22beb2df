package ded

// The batch executor runs many DED pipelines concurrently. Subjects are the
// natural unit of parallelism in rgpdOS — every DED run works on its own
// projected views of one subject's data, and DBFS shards its record locks
// by subject — so invocations targeting distinct subjects never contend on
// shared mutable state and scale with workers. Invocations that
// touch the same subject are race-free at the record level: the subject's
// DBFS shard lock serializes each access, and membrane mutations are atomic
// read-modify-writes of the stored state (dbfs.MutateMembrane). Between
// whole invocations the ordering is last-writer-wins, exactly as for two
// independent clients invoking serially in an unspecified order.

import (
	"sync"
)

// BatchItem pairs one invocation's result with its error; exactly one of
// Res/Err is set. Results keep the order of the submitted invocations.
type BatchItem struct {
	Res *Result
	Err error
	// Rejected marks an invocation shed by admission control before it
	// reached the DED (Err wraps admission.ErrOverloaded): deliberate
	// load shedding the caller may retry, not a processing failure — and
	// never a silent drop, since the rejected slot keeps its position.
	Rejected bool
}

// RunBatch executes the invocations on a pool of workers goroutines, each
// invocation through the full eight-stage pipeline. A workers value below
// one, or above the batch size, is clamped. Failures are per-invocation:
// one failing run never aborts its siblings.
//
// When non-nil, onDone(i, item) runs on the executing worker the moment
// invocation i completes, before the batch returns. The Processing Store
// uses it to release each request's admission-queue slot at its true
// completion instant rather than at the end of the whole batch.
func (d *DED) RunBatch(invs []Invocation, workers int, onDone func(i int, item BatchItem)) []BatchItem {
	out := make([]BatchItem, len(invs))
	if len(invs) == 0 {
		return out
	}
	if workers < 1 {
		workers = 1
	}
	if workers > len(invs) {
		workers = len(invs)
	}
	run := func(i int) {
		out[i].Res, out[i].Err = d.Run(invs[i])
		if onDone != nil {
			onDone(i, out[i])
		}
	}
	if workers == 1 {
		for i := range invs {
			run(i)
		}
		return out
	}
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				run(i)
			}
		}()
	}
	for i := range invs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out
}
