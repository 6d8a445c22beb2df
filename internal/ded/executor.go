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
// uses it to release each request's admission slot at its true
// completion instant rather than at the end of the whole batch.
func (d *DED) RunBatch(invs []Invocation, workers int, onDone func(i int, item BatchItem)) []BatchItem {
	out := make([]BatchItem, len(invs))
	// fn never fails: each item carries its own error, so one failing run
	// never stops the serial loop either.
	ForEachIndexed(len(invs), workers, func(i int) error {
		out[i].Res, out[i].Err = d.Run(invs[i])
		if onDone != nil {
			onDone(i, out[i])
		}
		return nil
	})
	return out
}

// ForEachIndexed runs fn(i) for every i in [0, n) on up to workers
// goroutines and returns the error of the LOWEST failing index — the same
// error a serial loop would have surfaced first, so fanned-out work keeps
// deterministic failure reporting. With one worker it is that serial loop
// and stops at the first error. It is the one fan-out pool of the
// machine: RunBatch, the rights engine's per-subject and per-record
// fan-outs and the cluster router's per-node fan-outs all run on it, so a
// multi-node sweep or batch access reports exactly the error a single-node
// engine would have.
func ForEachIndexed(n, workers int, fn func(int) error) error {
	if n == 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
