package main

import (
	"fmt"
	"time"

	"repro/internal/baseline"
	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/ps"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// ladderSubjects is how many subjects the layer ladder walks.
const ladderSubjects = 256

// baselineRowCap bounds the rows replayed into the baseline per subject: its
// filesystem is fixed at 8192 inodes, one per row. The median subject is far
// below the cap, so the p50 ratios are not affected.
const baselineRowCap = 16

// ladder holds the layer ladder's timings (ns). After the last op, on the
// machine in its end-of-run state, it calls the public entry point of each
// layer under rights and ps, so a layer's self time is its entry minus its
// separately measured children.
type ladder struct {
	access       []int64 // Rights().Access
	invoke       []int64 // PS().Invoke of the first query purpose
	list         []int64 // DBFS().ListBySubject
	getMembranes []int64 // DBFS().GetMembranes of the whole subject
	getRecord    []int64 // DBFS().GetRecord, one sample per pdid
	byPDs        []int64 // Audit().ByPDs of the whole subject
	insert       []int64 // DBFS().Insert of one more record, per distinct subject
	erase        []int64 // Rights().Erase, per distinct subject
	records      []int64 // records listed per visit
	children     []int64 // list + getMembranes + getRecords + byPDs per visit

	baseInsert []int64 // baseline.Engine.Insert
	baseGet    []int64 // baseline.Engine.Get
	baseErase  []int64 // baseline.Engine.EraseSubject
}

func since(t0 time.Time) int64 { return int64(time.Since(t0)) }

// runLadder walks the ladder in two passes. The first is read-only, over
// ladderSubjects draws of the mix's own subject skew (a hot subject is visited
// as often as the trace visits it). The second goes once over the distinct
// subjects drawn: one more Insert and the subject's Erase on the machine, and
// the same subject with the same number of live rows inserted, read and erased
// on the non-compliant baseline. It mutates the machine, so it runs after the
// invariant scan.
func runLadder(sys *core.System, sc workload.Scenario, mix workload.MacroMix, seed uint64, pdBlocks uint64, tr *tracer) (*ladder, error) {
	l := &ladder{}
	tok := sys.DEDToken()
	sim, _ := sys.SimClock()
	picker := workload.NewPicker(xrand.New(seed), workload.SubjectIDs(mix.Subjects), mix.Skew)

	visit := 0
	step := func(name string, dst *[]int64, fn func() error) (int64, error) {
		t0 := time.Now()
		err := fn()
		t1 := time.Now()
		if err != nil {
			return 0, fmt.Errorf("ladder visit %d %s: %w", visit, name, err)
		}
		*dst = append(*dst, int64(t1.Sub(t0)))
		tr.add(0, "ladder."+name, t0, t1, visit, "ladder", "ok")
		return int64(t1.Sub(t0)), nil
	}

	var distinct []string
	live := map[string]int{}
	for ; visit < min(ladderSubjects, mix.Subjects); visit++ {
		subject := picker.Pick()
		if sim != nil {
			// One simulated second per visit refills the admission buckets
			// the mix installed, so the ladder's queries are not shed.
			sim.Advance(time.Second)
		}
		if _, err := step("rights.Access", &l.access, func() error {
			_, err := sys.Rights().Access(subject)
			return err
		}); err != nil {
			return nil, err
		}
		if _, err := step("ps.Invoke", &l.invoke, func() error {
			_, err := sys.PS().Invoke(ps.InvokeRequest{
				Processing: mix.QueryPurposes[0], TypeName: sc.TypeName, SubjectFilter: subject,
			})
			return err
		}); err != nil {
			return nil, err
		}
		var pdids []string
		children, err := step("dbfs.ListBySubject", &l.list, func() (err error) {
			pdids, err = sys.DBFS().ListBySubject(tok, subject)
			return err
		})
		if err != nil {
			return nil, err
		}
		d, err := step("dbfs.GetMembranes", &l.getMembranes, func() error {
			_, err := sys.DBFS().GetMembranes(tok, pdids)
			return err
		})
		if err != nil {
			return nil, err
		}
		children += d
		readable := 0
		for _, pdid := range pdids {
			t0 := time.Now()
			_, err := sys.DBFS().GetRecord(tok, pdid)
			t1 := time.Now()
			if err != nil {
				continue // erased or expired: Access exports no data for it either
			}
			readable++
			l.getRecord = append(l.getRecord, int64(t1.Sub(t0)))
			children += int64(t1.Sub(t0))
			tr.add(0, "ladder.dbfs.GetRecord", t0, t1, visit, "ladder", "ok")
		}
		d, err = step("audit.ByPDs", &l.byPDs, func() error {
			sys.Audit().ByPDs(pdids)
			return nil
		})
		if err != nil {
			return nil, err
		}
		l.children = append(l.children, children+d)
		l.records = append(l.records, int64(len(pdids)))
		if _, seen := live[subject]; !seen {
			distinct = append(distinct, subject)
			live[subject] = readable
		}
	}

	dev, err := blockdev.NewMem(pdBlocks, blockdev.DefaultLatency())
	if err != nil {
		return nil, err
	}
	base, err := baseline.New(dev, sys.Clock())
	if err != nil {
		return nil, err
	}
	if err := base.CreateTable(sc.TypeName); err != nil {
		return nil, err
	}
	consents := map[string]bool{}
	for purposeName, grant := range sc.Defaults {
		consents[purposeName] = grant != "none"
	}
	for _, subject := range distinct {
		visit++
		if _, err := step("dbfs.Insert", &l.insert, func() error {
			_, err := sys.DBFS().Insert(tok, sc.TypeName, subject, sc.Record(subject, "sx-ladder", visit), nil)
			return err
		}); err != nil {
			return nil, err
		}
		if _, err := step("rights.Erase", &l.erase, func() error {
			_, err := sys.Rights().Erase(subject)
			return err
		}); err != nil {
			return nil, err
		}

		var id string
		for r := 0; r < min(live[subject]+1, baselineRowCap); r++ {
			fields := map[string]string{}
			for k, v := range sc.Record(subject, "sx-ladder", r) {
				fields[k] = v.String()
			}
			t0 := time.Now()
			id, err = base.Insert(sc.TypeName, subject, fields, consents, 0)
			if err != nil {
				return nil, fmt.Errorf("ladder baseline insert: %w", err)
			}
			l.baseInsert = append(l.baseInsert, since(t0))
		}
		t0 := time.Now()
		if _, err := base.Get(id, mix.QueryPurposes[0]); err != nil {
			return nil, fmt.Errorf("ladder baseline get: %w", err)
		}
		l.baseGet = append(l.baseGet, since(t0))
		t0 = time.Now()
		if _, err := base.EraseSubject(subject); err != nil {
			return nil, fmt.Errorf("ladder baseline erase: %w", err)
		}
		l.baseErase = append(l.baseErase, since(t0))
	}
	return l, nil
}
