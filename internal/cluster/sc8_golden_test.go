package cluster_test

import (
	"errors"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/cryptoshred"
	"repro/internal/golden"
	"repro/internal/simclock"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// sc8Row is one fleet size's scaling measurement in PD-disk device ops
// (reads+writes). CriticalOps is the busiest node's share: the fleet's
// completion time is its critical path, so TotalOps(1 node) / CriticalOps
// (k nodes) is the speedup the routing exposes.
type sc8Row struct {
	Nodes             int     `json:"nodes"`
	InsertTotalOps    uint64  `json:"insert_total_ops"`
	InsertCriticalOps uint64  `json:"insert_critical_ops"`
	InsertSpeedup     float64 `json:"insert_speedup"`
	AccessTotalOps    uint64  `json:"access_total_ops"`
	AccessCriticalOps uint64  `json:"access_critical_ops"`
	AccessSpeedup     float64 `json:"access_speedup"`
}

// sc8Report is the schema of testdata/sc8.golden.json.
type sc8Report struct {
	Experiment string   `json:"experiment"`
	Schema     int      `json:"schema"`
	Rows       []sc8Row `json:"rows"`
	Summary    struct {
		Subjects       int     `json:"subjects"`
		InsertSpeedup2 float64 `json:"insert_speedup_2"`
		InsertSpeedup4 float64 `json:"insert_speedup_4"`
		AccessSpeedup2 float64 `json:"access_speedup_2"`
		AccessSpeedup4 float64 `json:"access_speedup_4"`
		// The copy-ledger contract after erasing subjects with remote
		// copies, one copy-holding node failing the first fan-out.
		CopySubjects        int  `json:"copy_subjects"`
		ErasePropagated     bool `json:"erase_propagated"`
		LedgerDrained       bool `json:"ledger_drained"`
		RetriedWithinWindow bool `json:"retried_within_window"`
		RemoteResidueHits   int  `json:"remote_residue_hits"`
	} `json:"summary"`
}

// sc8Fleet boots a k-node cluster with the Listing 1 type everywhere:
// seeded vault entropy, caches disabled so device ops count real work.
func sc8Fleet(t *testing.T, k int, seed uint64, window time.Duration) (*cluster.Cluster, *simclock.Sim) {
	t.Helper()
	clk := simclock.NewSim(simclock.Epoch)
	c, err := cluster.Boot(cluster.Options{
		Nodes: k,
		Node: core.Options{
			Clock:         clk,
			CryptoRand:    xrand.NewReader(seed),
			AuthorityBits: 1024,
			PDDiskBlocks:  16384,
			NPDDiskBlocks: 4096,
			NInodes:       8192,
			JournalBlocks: 256,
			Workers:       2,
			MembraneCache: -1,
			BlockCache:    -1,
		},
		PropagationWindow: window,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.DeclareTypesDSL(cluster.UserDSL, cluster.AliasOpts()); err != nil {
		t.Fatal(err)
	}
	return c, clk
}

// pdOps snapshots each node's PD-disk device operations.
func pdOps(c *cluster.Cluster) []uint64 {
	out := make([]uint64, c.Nodes())
	for i := range out {
		st := c.Node(i).Stats().PDDisk
		out[i] = st.Reads + st.Writes
	}
	return out
}

// deltaOps folds before/after snapshots into (total, critical-path max).
func deltaOps(before, after []uint64) (total, crit uint64) {
	for i := range after {
		d := after[i] - before[i]
		total += d
		crit = max(crit, d)
	}
	return total, crit
}

// TestSC8Golden runs the same insert + subject-access workload on 1-, 2-
// and 4-node fleets, then the erasure-propagation contract on a 4-node
// fleet with materialized cross-node copies and one injected fan-out
// failure. Every count must match testdata/sc8.golden.json.
func TestSC8Golden(t *testing.T) {
	const (
		seed      = 42
		nSubjects = 48
		nCopy     = 6
		window    = time.Minute
	)
	report := sc8Report{Experiment: "SC8", Schema: 1}
	report.Summary.Subjects = nSubjects
	subjects := workload.SubjectIDs(nSubjects)

	for _, k := range []int{1, 2, 4} {
		c, _ := sc8Fleet(t, k, seed, window)
		rng := xrand.New(seed)
		before := pdOps(c)
		for _, s := range subjects {
			if _, err := c.Insert("user", s, workload.UserRecord(rng, s)); err != nil {
				t.Fatal(err)
			}
		}
		mid := pdOps(c)
		if _, err := c.AccessBatch(subjects); err != nil {
			t.Fatal(err)
		}
		row := sc8Row{Nodes: k}
		row.InsertTotalOps, row.InsertCriticalOps = deltaOps(before, mid)
		row.AccessTotalOps, row.AccessCriticalOps = deltaOps(mid, pdOps(c))
		report.Rows = append(report.Rows, row)
	}
	single := report.Rows[0]
	for i := range report.Rows {
		r := &report.Rows[i]
		r.InsertSpeedup = float64(single.InsertTotalOps) / float64(r.InsertCriticalOps)
		r.AccessSpeedup = float64(single.AccessTotalOps) / float64(r.AccessCriticalOps)
	}
	s := &report.Summary
	s.InsertSpeedup2, s.AccessSpeedup2 = report.Rows[1].InsertSpeedup, report.Rows[1].AccessSpeedup
	s.InsertSpeedup4, s.AccessSpeedup4 = report.Rows[2].InsertSpeedup, report.Rows[2].AccessSpeedup

	// Propagation contract: every subject gets one copy on a non-home node.
	c, clk := sc8Fleet(t, 4, seed+1, window)
	rng := xrand.New(seed + 1)
	copySubjects := subjects[:nCopy]
	secrets := make(map[string]string, nCopy)
	targets := make(map[string]int, nCopy)
	copies := make(map[string]string, nCopy)
	for _, subj := range copySubjects {
		rec := workload.UserRecord(rng, subj)
		secrets[subj] = rec["pwd"].S
		pdid, err := c.Insert("user", subj, rec)
		if err != nil {
			t.Fatal(err)
		}
		targets[subj] = (c.HomeOf(subj) + 1) % c.Nodes()
		if copies[subj], err = c.MaterializeCopy(pdid, targets[subj]); err != nil {
			t.Fatal(err)
		}
	}
	// One copy-holding node drops the first fan-out attempt: the erase
	// reports the partial failure and the propagator finishes the job
	// within one window.
	c.FailNode(targets[copySubjects[0]], 1)
	s.CopySubjects = nCopy
	deferred := 0
	for _, subj := range copySubjects {
		rep, err := c.Erase(subj)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Fanout.OK() {
			deferred++
		}
	}
	prop := c.StartPropagator()
	clk.Advance(window + time.Second)
	prop.Sync()
	prop.Stop()
	s.RetriedWithinWindow = deferred == 1 && c.PendingSyncs() == 0

	s.ErasePropagated, s.LedgerDrained = true, true
	for _, subj := range copySubjects {
		if n := len(c.CopyNodes(subj)); n != 0 {
			s.LedgerDrained = false
			t.Errorf("ledger_drained: %s still names %d copy nodes", subj, n)
		}
		node := c.Node(targets[subj])
		_, err := node.DBFS().GetRecord(node.DEDToken(), copies[subj])
		switch {
		case err == nil:
			s.ErasePropagated = false
			t.Errorf("erase_propagated: copy %s on node %d is still readable", copies[subj], targets[subj])
		case !errors.Is(err, cryptoshred.ErrKeyDestroyed):
			t.Fatalf("read of erased copy %s: %v, want a destroyed-key error", copies[subj], err)
		}
		for i := 0; i < c.Nodes(); i++ {
			s.RemoteResidueHits += len(c.Node(i).ResidueScan([]byte(secrets[subj])))
		}
	}
	if !s.RetriedWithinWindow {
		t.Errorf("retried_within_window: %d deferred fan-outs (want 1), %d syncs pending after one window", deferred, c.PendingSyncs())
	}
	if s.RemoteResidueHits != 0 {
		t.Errorf("remote_residue_hits = %d, want 0", s.RemoteResidueHits)
	}
	golden.JSON(t, "testdata/sc8.golden.json", &report)
}
