package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/ded"
)

// span is one line of <workload>.trace.jsonl. Times are ns since the timed
// phase began. Root spans (parent 0) are ops at the Target boundary, ladder
// walks or probes; Counts is set on op roots of serial workloads.
type span struct {
	ID      int64     `json:"id"`
	Parent  int64     `json:"parent"`
	Name    string    `json:"name"`
	StartNs int64     `json:"start_ns"`
	EndNs   int64     `json:"end_ns"`
	Op      int       `json:"op"`
	Class   string    `json:"class"`
	Outcome string    `json:"outcome"`
	Counts  *opCounts `json:"counts,omitempty"`
}

// opCounts are the public counters read around each traced op: core.Stats,
// DBFS().JournalStats() and PS().Stats(). With one client the deltas belong
// to the op; with several they would mix, so the parallel workload skips
// them.
type opCounts [nCounts]uint64

const (
	cDevReads = iota
	cDevWrites
	cDevSyncs
	cDevSimNs
	cNPDOps
	cBusMsgs
	cMembraneReads
	cMCacheHits
	cDataReads
	cWALTxns
	cWALBlocks
	cInvocations
	nCounts
)

var countNames = [nCounts]string{
	"dev_reads", "dev_writes", "dev_syncs", "dev_sim_ns", "npd_ops", "bus_msgs",
	"membrane_reads", "mcache_hits", "data_reads", "wal_txns", "wal_blocks", "invocations",
}

func readOpCounts(sys *core.System) opCounts {
	st := sys.Stats()
	js := sys.DBFS().JournalStats()
	return opCounts{
		cDevReads:      st.PDDisk.Reads,
		cDevWrites:     st.PDDisk.Writes,
		cDevSyncs:      st.PDDisk.Syncs,
		cDevSimNs:      uint64(st.PDDisk.SimLatency),
		cNPDOps:        st.NPDDisk.Reads + st.NPDDisk.Writes,
		cBusMsgs:       st.Bus.Messages,
		cMembraneReads: st.DBFS.MembraneReads,
		cMCacheHits:    st.DBFS.CacheHits,
		cDataReads:     st.DBFS.DataReads,
		cWALTxns:       js.TxnsCommitted,
		cWALBlocks:     js.BlocksLogged,
		cInvocations:   sys.PS().Invocations(),
	}
}

// MarshalJSON writes the counters as an object keyed by countNames.
func (c opCounts) MarshalJSON() ([]byte, error) {
	m := make(map[string]uint64, nCounts)
	for i, v := range c {
		m[countNames[i]] = v
	}
	return json.Marshal(m)
}

// tracer keeps every span in memory until the run ends.
type tracer struct {
	sys    *core.System
	counts bool // read opCounts around each op (serial workloads)
	epoch  time.Time
	spans  []span
	// perKind sums the op roots' counts by class for the attribution table.
	perKind [nKinds]opCounts
}

// start fixes the span clock's zero at the start of the timed phase.
func (tr *tracer) start(sys *core.System) {
	tr.sys = sys
	tr.epoch = time.Now()
}

// begin reads the counters an op's root span will be charged against.
func (tr *tracer) begin() opCounts {
	if tr.sys == nil || !tr.counts {
		return opCounts{}
	}
	return readOpCounts(tr.sys)
}

// add appends one span and returns its id.
func (tr *tracer) add(parent int64, name string, start, end time.Time, op int, class, outcome string) int64 {
	id := int64(len(tr.spans) + 1)
	tr.spans = append(tr.spans, span{
		ID: id, Parent: parent, Name: name,
		StartNs: int64(start.Sub(tr.epoch)), EndNs: int64(end.Sub(tr.epoch)),
		Op: op, Class: class, Outcome: outcome,
	})
	return id
}

var stageNames = [8]string{
	"type2req", "load_membrane", "filter", "load_data", "execute", "build_membrane", "store", "return",
}

func stageDurations(st ded.StageTimings) [8]time.Duration {
	return [8]time.Duration{
		st.Type2Req, st.LoadMembrane, st.Filter, st.LoadData,
		st.Execute, st.BuildMembrane, st.Store, st.Return,
	}
}

// op records one finished op: its root span and, for a query, the eight DED
// stages as children. ded.Result carries stage durations, not timestamps, so
// the children are laid end to end from the root's start; what is left of
// the root after them is ps self time.
func (tr *tracer) op(idx int, s opStart, end time.Time, err error, res *ded.Result) {
	class := kindNames[s.kind]
	root := tr.add(0, "op."+class, s.at, end, idx, class, outcomeOf(err))
	if tr.counts {
		d := readOpCounts(tr.sys)
		for i := range d {
			d[i] -= s.counts[i]
			tr.perKind[s.kind][i] += d[i]
		}
		tr.spans[root-1].Counts = &d
	}
	if res == nil {
		return
	}
	at := s.at
	for i, d := range stageDurations(res.Timings) {
		tr.add(root, "ded."+stageNames[i], at, at.Add(d), idx, class, "")
		at = at.Add(d)
	}
}

// write dumps the spans as JSON lines.
func (tr *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range tr.spans {
		if err := enc.Encode(&tr.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
