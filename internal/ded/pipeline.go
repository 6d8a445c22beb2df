package ded

// The eight ded_* steps of a DED run as an explicit pipeline: each stage is
// a named function over the run's state, and Run drives the stage list,
// timing every step into Result.Timings. RunBatch schedules whole pipelines
// across workers.

import (
	"fmt"
	"time"

	"repro/internal/audit"
	"repro/internal/dbfs"
	"repro/internal/sandbox"
)

// runState carries one invocation through the pipeline. Each stage consumes
// the fields earlier stages produced.
type runState struct {
	inv Invocation
	now time.Time
	res *Result

	pdids      []string        // after ded_type2req
	candidates []candidate     // after ded_load_membrane
	pass       []admitted      // after ded_filter
	sch        *dbfs.Schema    // after ded_load_data
	declared   map[string]bool // the purpose's reads of sch, after ded_load_data
	rows       []loaded        // after ded_load_data
	outputs    []Output        // after ded_execute
}

// stage is one named pipeline step. timing selects the StageTimings slot the
// driver accumulates into; stages that split their own time across several
// slots (build_membrane + store) leave it nil and account internally.
type stage struct {
	name   string
	timing func(*StageTimings) *time.Duration
	run    func(*DED, *runState) error
}

// readPipeline is the full eight-step pipeline for F_pd^r processings.
var readPipeline = []stage{
	{"ded_type2req", func(t *StageTimings) *time.Duration { return &t.Type2Req }, (*DED).stageType2Req},
	{"ded_load_membrane", func(t *StageTimings) *time.Duration { return &t.LoadMembrane }, (*DED).stageLoadMembrane},
	{"ded_filter", func(t *StageTimings) *time.Duration { return &t.Filter }, (*DED).stageFilter},
	{"ded_load_data", func(t *StageTimings) *time.Duration { return &t.LoadData }, (*DED).stageLoadData},
	{"ded_execute", func(t *StageTimings) *time.Duration { return &t.Execute }, (*DED).stageExecute},
	{"ded_build_membrane+ded_store", nil, (*DED).stageBuildAndStore},
	{"ded_return", func(t *StageTimings) *time.Duration { return &t.Return }, (*DED).stageReturn},
}

// writePipeline is the F_pd^w variant: ded_load_data and ded_execute merge
// (built-ins load what they need through their WriteCtx), and generated refs
// flow to ded_return as usual.
var writePipeline = []stage{
	{"ded_type2req", func(t *StageTimings) *time.Duration { return &t.Type2Req }, (*DED).stageType2Req},
	{"ded_load_membrane", func(t *StageTimings) *time.Duration { return &t.LoadMembrane }, (*DED).stageLoadMembrane},
	{"ded_filter", func(t *StageTimings) *time.Duration { return &t.Filter }, (*DED).stageFilter},
	{"ded_execute", func(t *StageTimings) *time.Duration { return &t.Execute }, (*DED).stageWriteExecute},
}

// Run executes one invocation through the eight-stage pipeline.
func (d *DED) Run(inv Invocation) (*Result, error) {
	if inv.Purpose == nil {
		return nil, fmt.Errorf("%w: invocation without purpose", ErrNotFunc)
	}
	if inv.Impl == nil {
		return nil, fmt.Errorf("%w: invocation without implementation", ErrNotFunc)
	}
	if err := inv.Impl.Validate(); err != nil {
		return nil, err
	}
	st := &runState{
		inv: inv,
		now: d.clock.Now(),
		res: &Result{Filtered: make(map[string]int)},
	}
	pipe := readPipeline
	if inv.Impl.WriteFn != nil {
		pipe = writePipeline
	}
	for _, stg := range pipe {
		start := time.Now()
		err := stg.run(d, st)
		if stg.timing != nil {
			*stg.timing(&st.res.Timings) += time.Since(start)
		}
		if err != nil {
			return nil, err
		}
	}
	return st.res, nil
}

// stageType2Req translates the input PD/type reference into DBFS requests.
func (d *DED) stageType2Req(st *runState) error {
	pdids, err := d.expandTargets(st.inv)
	if err != nil {
		return err
	}
	st.pdids = pdids
	return nil
}

// stageLoadMembrane fetches the membranes of the involved PD first — as one
// batch, so DBFS takes each subject-shard lock once per invocation instead
// of once per record (and serves repeat fetches from its membrane cache).
func (d *DED) stageLoadMembrane(st *runState) error {
	ms, err := d.store.GetMembranes(d.tok, st.pdids)
	if err != nil {
		return fmt.Errorf("ded: load membrane: %w", err)
	}
	st.candidates = make([]candidate, 0, len(st.pdids))
	for i, pdid := range st.pdids {
		st.candidates = append(st.candidates, candidate{pdid: pdid, m: ms[i]})
	}
	return nil
}

// stageFilter keeps only PD whose membrane approves the purpose.
func (d *DED) stageFilter(st *runState) error {
	for _, c := range st.candidates {
		grant, err := d.decide(c.m, st.inv, st.now)
		if err != nil {
			st.res.Filtered[filterReason(err)]++
			d.log.Append(audit.KindDenial, st.inv.Purpose.Name, c.pdid, c.m.SubjectID, "filtered", err.Error())
			continue
		}
		st.pass = append(st.pass, admitted{pdid: c.pdid, m: c.m, grant: grant})
	}
	return nil
}

// stageLoadData fetches the data for the surviving PD and projects each
// record onto its grant and the purpose's declared reads.
func (d *DED) stageLoadData(st *runState) error {
	if len(st.pass) > 0 {
		sch, err := d.store.SchemaOf(d.tok, schemaName(st.inv, st.pass))
		if err != nil {
			return err
		}
		st.sch = sch
		reads := st.inv.Purpose.ReadsOfType(sch.Name)
		st.declared = make(map[string]bool, len(reads))
		for _, f := range reads {
			st.declared[f] = true
		}
	}
	for _, a := range st.pass {
		rec, err := d.store.GetRecord(d.tok, a.pdid)
		if err != nil {
			return fmt.Errorf("ded: load data %s: %w", a.pdid, err)
		}
		view, err := dbfs.ProjectView(st.sch, rec, a.grant, st.declared)
		if err != nil {
			return fmt.Errorf("ded: project %s: %w", a.pdid, err)
		}
		st.rows = append(st.rows, loaded{admitted: a, view: view})
	}
	return nil
}

// stageExecute runs the processing on each projected view under the
// sandbox profile. A touch of an undeclared field fails the run, whatever
// the function did with the error.
func (d *DED) stageExecute(st *runState) error {
	env := sandbox.NewEnv(sandbox.NewMonitor(sandbox.DEDProfile()))
	for _, row := range st.rows {
		ctx := &Ctx{
			env:       env,
			clock:     d.clock,
			pdid:      row.pdid,
			typeName:  row.m.TypeName,
			subjectID: row.m.SubjectID,
			view:      row.view,
			declared:  st.declared,
		}
		out, err := st.inv.Impl.Fn(ctx)
		if ctx.undeclared != "" {
			d.log.Append(audit.KindAlert, st.inv.Purpose.Name, row.pdid, row.m.SubjectID, "blocked", "undeclared read "+ctx.undeclared)
			return fmt.Errorf("ded: execute %s on %s: %w: %s", st.inv.Impl.Name, row.pdid, ErrUndeclaredRead, ctx.undeclared)
		}
		if err != nil {
			d.log.Append(audit.KindProcessing, st.inv.Purpose.Name, row.pdid, row.m.SubjectID, "error", err.Error())
			return fmt.Errorf("ded: execute %s on %s: %w", st.inv.Impl.Name, row.pdid, err)
		}
		if err := scrubOutput(out.NonPD, row.view); err != nil {
			d.log.Append(audit.KindAlert, st.inv.Purpose.Name, row.pdid, row.m.SubjectID, "blocked", err.Error())
			return err
		}
		st.outputs = append(st.outputs, out)
		st.res.Processed++
		d.log.Append(audit.KindProcessing, st.inv.Purpose.Name, row.pdid, row.m.SubjectID, "ok", st.inv.Impl.Name)
	}
	return nil
}

// stageBuildAndStore wraps any generated PD in a membrane (ded_build_membrane)
// and persists it in DBFS (ded_store), splitting its own time across the two
// timing slots. Generated PD must belong to its source's subject: a family
// is found from the subject's own listing, so a record filed under another
// subject would escape its source's erasure. One such output fails the run
// before anything is stored.
func (d *DED) stageBuildAndStore(st *runState) error {
	for i, out := range st.outputs {
		if g := out.Generated; g != nil && g.SubjectID != st.rows[i].m.SubjectID {
			src := st.rows[i]
			d.log.Append(audit.KindAlert, st.inv.Purpose.Name, src.pdid, src.m.SubjectID, "blocked",
				"generated PD for subject "+g.SubjectID)
			return fmt.Errorf("ded: store generated PD of %s: %w: %q", src.pdid, ErrCrossSubject, g.SubjectID)
		}
	}
	for i, out := range st.outputs {
		if out.Generated == nil {
			continue
		}
		bmStart := time.Now()
		src := st.rows[i].m
		gm := d.buildMembrane(out.Generated, src, st.now)
		st.res.Timings.BuildMembrane += time.Since(bmStart)

		stStart := time.Now()
		ref, err := d.store.Insert(d.tok, out.Generated.TypeName, out.Generated.SubjectID, out.Generated.Fields, gm)
		if err != nil {
			return fmt.Errorf("ded: store generated PD: %w", err)
		}
		st.res.PDRefs = append(st.res.PDRefs, ref)
		st.res.Timings.Store += time.Since(stStart)
	}
	return nil
}

// stageReturn hands back non-PD values and references to PD — never PD.
func (d *DED) stageReturn(st *runState) error {
	for _, out := range st.outputs {
		if out.NonPD != nil {
			st.res.Outputs = append(st.res.Outputs, out.NonPD)
		}
	}
	return nil
}

// stageWriteExecute is the F_pd^w tail of the pipeline: per admitted record,
// the builtin mutates DBFS through its WriteCtx.
func (d *DED) stageWriteExecute(st *runState) error {
	for _, a := range st.pass {
		w := &WriteCtx{d: d, inv: &st.inv, pdid: a.pdid, m: a.m.Clone()}
		if err := st.inv.Impl.WriteFn(w); err != nil {
			d.log.Append(audit.KindProcessing, st.inv.Purpose.Name, a.pdid, a.m.SubjectID, "error", err.Error())
			return fmt.Errorf("ded: %s on %s: %w", st.inv.Impl.Name, a.pdid, err)
		}
		st.res.PDRefs = append(st.res.PDRefs, w.generated...)
		st.res.Processed++
	}
	return nil
}
