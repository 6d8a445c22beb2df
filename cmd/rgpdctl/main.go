// Command rgpdctl is the sysadmin tool: it validates PD-type declarations
// and purpose declarations offline, renders the Fig. 1 dataset, and boots a
// probe machine to report the storage-stack counters.
//
//	rgpdctl types file.rgpd [derived=stored ...]   # each pair aliases a derived field
//	rgpdctl purposes file.purpose
//	rgpdctl fig1
//	rgpdctl fmt file.rgpd      # canonical formatting
//	rgpdctl status             # boot a probe machine, print its counters
//	rgpdctl tune [knob=value ...]   # apply a tuning document on a probe machine
//	rgpdctl nodes              # boot a probe cluster, show routing + erase propagation
//	rgpdctl macro <scenario>   # run a macro workload scenario, print its scorecard
package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dbfs"
	"repro/internal/gdprdata"
	"repro/internal/purpose"
	"repro/internal/simclock"
	"repro/internal/typedsl"
	"repro/internal/workload"
	"repro/internal/xrand"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "types":
		err = cmdTypes(os.Args[2:])
	case "purposes":
		err = cmdPurposes(os.Args[2:])
	case "fmt":
		err = cmdFmt(os.Args[2:])
	case "fig1":
		err = cmdFig1()
	case "status":
		err = cmdStatus()
	case "tune":
		err = cmdTune(os.Args[2:])
	case "nodes":
		err = cmdNodes()
	case "macro":
		err = cmdMacro(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rgpdctl:", err)
		os.Exit(1)
	}
}

func usage() { fmt.Fprintln(os.Stderr, usageText) }

const usageText = `usage:
  rgpdctl types <file.rgpd> [derived=stored ...]         validate type declarations
  rgpdctl purposes <file.purpose>                        validate purpose declarations
  rgpdctl fmt <file.rgpd>                                print canonical form
  rgpdctl fig1                                           render the Figure 1 dataset
  rgpdctl status                                         boot a probe machine, print its counters
  rgpdctl tune [knob=value ...]                          apply a tuning document on a probe machine
  rgpdctl nodes                                          boot a probe cluster, show routing + erase propagation
  rgpdctl macro <scenario> [seed] [-trace]               run a macro scenario (CI scale), print its scorecard
    knobs: commit_window=2ms group_max_batch=8 admission_max_pending=64 membrane_cache=512
           rights_workers=4 sweep_interval=30s rate_limit=<purpose>:<rate>:<burst>
           cold_after=1h repack_interval=1m`

func readFile(path string) (string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func cmdTypes(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("types: need a file")
	}
	src, err := readFile(args[0])
	if err != nil {
		return err
	}
	opts := typedsl.CompileOptions{FieldAliases: map[string]string{}}
	for _, a := range args[1:] {
		if from, to, ok := strings.Cut(a, "="); ok {
			opts.FieldAliases[from] = to
		}
	}
	schemas, err := typedsl.CompileSource(src, opts)
	if err != nil {
		return err
	}
	for _, sch := range schemas {
		fmt.Printf("type %-16s fields=%d views=%d consents=%d ttl=%v sensitivity=%v origin=%v\n",
			sch.Name, len(sch.Fields), len(sch.Views), len(sch.DefaultConsent),
			sch.DefaultTTL, sch.Sensitivity, sch.Origin)
		for _, f := range sch.Fields {
			marker := ""
			if f.Sensitive {
				marker = "  [sensitive: stored separately]"
			}
			fmt.Printf("  field %-24s %v%s\n", f.Name, f.Type, marker)
		}
	}
	fmt.Printf("ok: %d type(s) valid\n", len(schemas))
	return nil
}

func cmdPurposes(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("purposes: need a file")
	}
	src, err := readFile(args[0])
	if err != nil {
		return err
	}
	decls, err := purpose.Parse(src)
	if err != nil {
		return err
	}
	for _, d := range decls {
		fmt.Printf("purpose %-20s basis=%v reads=%v produces=%q\n  %s\n",
			d.Name, d.Basis, d.Reads, d.Produces, d.Description)
	}
	fmt.Printf("ok: %d purpose(s) valid\n", len(decls))
	return nil
}

func cmdFmt(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("fmt: need a file")
	}
	src, err := readFile(args[0])
	if err != nil {
		return err
	}
	decls, err := typedsl.Parse(src)
	if err != nil {
		return err
	}
	for _, d := range decls {
		fmt.Print(typedsl.Format(d))
	}
	return nil
}

// probeOpts sizes the small machine status and tune boot. The cold tier is
// enabled so status exercises a demote/promote round trip and tune shows a
// live cold_after.
func probeOpts() core.Options {
	return core.Options{
		PDDiskBlocks:  4096,
		NPDDiskBlocks: 1024,
		NInodes:       512,
		JournalBlocks: 64,
		AuthorityBits: 1024,
		ColdAfter:     time.Hour,
	}
}

// cmdStatus boots a small machine, runs a short PD + NPD probe workload,
// and prints the storage-stack counters — the quickest way to see the
// journal batching, the block buffer cache and the cold tier doing their
// jobs.
func cmdStatus() error {
	sys, err := core.Boot(probeOpts())
	if err != nil {
		return err
	}
	if err := sys.CreateType(&dbfs.Schema{
		Name:   "probe",
		Fields: []dbfs.Field{{Name: "name", Type: dbfs.TypeString}},
	}); err != nil {
		return err
	}
	tok := sys.DEDToken()
	for i := 0; i < 4; i++ {
		subject := fmt.Sprintf("subject-%d", i)
		pdid, err := sys.DBFS().Insert(tok, "probe", subject, dbfs.Record{"name": dbfs.S(subject)}, nil)
		if err != nil {
			return err
		}
		if _, err := sys.DBFS().GetRecord(tok, pdid); err != nil {
			return err
		}
	}
	npd := sys.NPD()
	if err := npd.MkdirAll("/probe"); err != nil {
		return err
	}
	if err := npd.WriteFile("/probe/status.txt", []byte("rgpdctl status probe")); err != nil {
		return err
	}
	if _, err := npd.ReadFile("/probe/status.txt"); err != nil {
		return err
	}
	if err := npd.Remove("/probe/status.txt"); err != nil {
		return err
	}

	st := sys.Stats()
	js := sys.DBFS().JournalStats()
	fmt.Printf("dbfs:        types=%d inserts=%d data-reads=%d membrane-reads=%d\n",
		st.DBFS.TypesCreated, st.DBFS.Inserts, st.DBFS.DataReads, st.DBFS.MembraneReads)
	fmt.Printf("block cache: hits=%d misses=%d evictions=%d writebacks=%d\n",
		st.DBFS.BlockCacheHits, st.DBFS.BlockCacheMisses, st.DBFS.BlockCacheEvictions, st.DBFS.BlockWritebacks)
	fmt.Printf("journal:     txns=%d blocks=%d group-commits=%d max-group=%d\n",
		js.TxnsCommitted, js.BlocksLogged, js.GroupCommits, js.MaxGroupTxns)
	fmt.Printf("pd disk:     reads=%d writes=%d syncs=%d\n", st.PDDisk.Reads, st.PDDisk.Writes, st.PDDisk.Syncs)
	fmt.Printf("npd disk:    reads=%d writes=%d syncs=%d\n", st.NPDDisk.Reads, st.NPDDisk.Writes, st.NPDDisk.Syncs)
	fmt.Printf("audit=%d denials=%d\n", st.Audit, st.Denials)

	// Age the probe records past the idle threshold, repack them into the
	// compressed cold tier, then read one back (transparent promotion) and
	// capture a membrane snapshot — so the cold counters below are live.
	if sim, ok := sys.SimClock(); ok {
		sim.Advance(2 * sys.DBFS().ColdAfter())
		rp := sys.StartRepacker()
		rp.Sync()
		rp.Stop()
		if _, err := sys.DBFS().GetRecord(tok, "probe/subject-0/1"); err != nil {
			return err
		}
		if _, err := sys.DBFS().SnapshotMembranes(tok, "status-probe"); err != nil {
			return err
		}
	}
	st = sys.Stats()
	fmt.Printf("cold tier:   records=%d demotions=%d promotions=%d dedup-hits=%d snapshots=%d bytes-saved=%d\n",
		st.DBFS.ColdRecords, st.DBFS.Demotions, st.DBFS.Promotions, st.DBFS.ColdDedupHits,
		st.DBFS.SnapshotsTaken, st.DBFS.ColdBytesSaved)
	return nil
}

// printTuning renders a full tuning snapshot (all fields non-nil).
func printTuning(t core.Tuning) {
	fmt.Printf("  commit_window=%v group_max_batch=%d membrane_cache=%d rights_workers=%d sweep_interval=%v\n",
		*t.CommitWindow, *t.GroupMaxBatch, *t.MembraneCache, *t.RightsWorkers, *t.SweepInterval)
	fmt.Printf("  cold_after=%v repack_interval=%v\n", *t.ColdAfter, *t.RepackInterval)
	if t.AdmissionMaxPending != nil {
		fmt.Printf("  admission_max_pending=%d\n", *t.AdmissionMaxPending)
	}
	for _, rl := range t.RateLimits {
		fmt.Printf("  rate_limit %s: %.1f/s burst %.1f\n", rl.Purpose, rl.RatePerSec, rl.Burst)
	}
}

// parseTuning turns knob=value arguments into a core.Tuning document.
func parseTuning(args []string) (core.Tuning, error) {
	var t core.Tuning
	for _, a := range args {
		k, v, ok := strings.Cut(a, "=")
		if !ok {
			return t, fmt.Errorf("%q is not knob=value", a)
		}
		var err error
		switch k {
		case "commit_window":
			var d time.Duration
			if d, err = time.ParseDuration(v); err == nil {
				t.CommitWindow = &d
			}
		case "group_max_batch":
			var n int
			if n, err = strconv.Atoi(v); err == nil {
				t.GroupMaxBatch = &n
			}
		case "admission_max_pending":
			var n int
			if n, err = strconv.Atoi(v); err == nil {
				t.AdmissionMaxPending = &n
			}
		case "membrane_cache":
			var n int
			if n, err = strconv.Atoi(v); err == nil {
				t.MembraneCache = &n
			}
		case "rights_workers":
			var n int
			if n, err = strconv.Atoi(v); err == nil {
				t.RightsWorkers = &n
			}
		case "sweep_interval":
			var d time.Duration
			if d, err = time.ParseDuration(v); err == nil {
				t.SweepInterval = &d
			}
		case "cold_after":
			var d time.Duration
			if d, err = time.ParseDuration(v); err == nil {
				t.ColdAfter = &d
			}
		case "repack_interval":
			var d time.Duration
			if d, err = time.ParseDuration(v); err == nil {
				t.RepackInterval = &d
			}
		case "rate_limit":
			parts := strings.Split(v, ":")
			if len(parts) != 3 {
				return t, fmt.Errorf("rate_limit wants <purpose>:<rate>:<burst>, got %q", v)
			}
			var rate, burst float64
			if rate, err = strconv.ParseFloat(parts[1], 64); err == nil {
				if burst, err = strconv.ParseFloat(parts[2], 64); err == nil {
					t.RateLimits = append(t.RateLimits, core.RateLimit{
						Purpose: parts[0], RatePerSec: rate, Burst: burst,
					})
				}
			}
		default:
			return t, fmt.Errorf("unknown knob %q (see usage)", k)
		}
		if err != nil {
			return t, fmt.Errorf("%s: %v", k, err)
		}
	}
	return t, nil
}

// cmdTune boots a probe machine, shows its tuning snapshot, and — when
// knob=value arguments are given — applies them as one validated document
// through System.ApplyTuning, the machine's one runtime-tuning door. A
// document with any invalid or unparsable knob applies nothing.
func cmdTune(args []string) error {
	sys, err := core.Boot(probeOpts())
	if err != nil {
		return err
	}
	fmt.Println("tuning (boot):")
	printTuning(sys.Tuning())
	if len(args) == 0 {
		return nil
	}
	doc, err := parseTuning(args)
	if err == nil {
		err = sys.ApplyTuning(doc)
	}
	if err != nil {
		return fmt.Errorf("tune: rejected (nothing applied): %w", err)
	}
	fmt.Println("tuning (after ApplyTuning):")
	printTuning(sys.Tuning())
	return nil
}

// cmdNodes boots a small 4-node probe cluster and walks the multi-node
// contract end to end: geometry-independent placement, a cross-node copy
// recorded in the durable ledger, and an Erase whose propagation to a
// briefly-failing copy node completes within one propagation window.
func cmdNodes() error {
	const window = time.Minute
	c, err := cluster.Boot(cluster.Options{
		Nodes: 4,
		Node: core.Options{
			PDDiskBlocks:  4096,
			NPDDiskBlocks: 1024,
			NInodes:       512,
			JournalBlocks: 64,
			AuthorityBits: 1024,
		},
		PropagationWindow: window,
	})
	if err != nil {
		return err
	}
	if err := c.CreateType(&dbfs.Schema{
		Name:   "probe",
		Fields: []dbfs.Field{{Name: "name", Type: dbfs.TypeString}},
	}); err != nil {
		return err
	}

	fmt.Printf("cluster: %d nodes, propagation window %v\n", c.Nodes(), window)
	fmt.Println("placement (home = SubjectHash(subject) mod nodes):")
	subjects := make([]string, 8)
	for i := range subjects {
		s := fmt.Sprintf("subject-%d", i)
		subjects[i] = s
		if _, err := c.Insert("probe", s, dbfs.Record{"name": dbfs.S(s)}); err != nil {
			return err
		}
		fmt.Printf("  %-12s -> node %d (%s)\n", s, c.HomeOf(s), c.Node(c.HomeOf(s)).NodeName())
	}

	// Materialize a cross-node copy of subject-0 on its home's neighbor:
	// the copy is named in the durable ledger before it becomes readable.
	victim := subjects[0]
	pdid, err := c.Insert("probe", victim, dbfs.Record{"name": dbfs.S(victim + "-extra")})
	if err != nil {
		return err
	}
	target := (c.HomeOf(victim) + 1) % c.Nodes()
	copyID, err := c.MaterializeCopy(pdid, target)
	if err != nil {
		return err
	}
	fmt.Printf("copy: %s materialized on node %d as %s\n", pdid, target, copyID)
	for _, e := range c.LedgerFor(victim) {
		fmt.Printf("ledger: subject=%s pdid=%s node=%d home=%d origin=%s\n",
			e.Subject, e.PDID, e.Node, e.Home, e.Origin)
	}

	status, err := c.Status()
	if err != nil {
		return err
	}
	for _, st := range status {
		fmt.Printf("node %d (%s): subjects=%d copies-held=%d copies-tracked=%d pending-syncs=%d\n",
			st.Index, st.Name, st.Subjects, st.CopiesHeld, st.CopiesTracked, st.PendingSyncs)
	}

	// Erase the copied subject while its copy node drops the first fan-out
	// attempt, then let the propagator finish the job one window later.
	c.FailNode(target, 1)
	rep, err := c.Erase(victim)
	if err != nil {
		return err
	}
	fmt.Printf("erase: %s shredded %d pdid(s) on home node %d; fan-out ok=%v pending=%d\n",
		rep.SubjectID, len(rep.Erased), rep.Home, rep.Fanout.OK(), c.PendingSyncs())
	prop := c.StartPropagator()
	if sim, ok := c.Node(0).SimClock(); ok {
		sim.Advance(window + time.Second)
	}
	prop.Sync()
	prop.Stop()
	tn := c.Node(target)
	_, readErr := tn.DBFS().GetRecord(tn.DEDToken(), copyID)
	fmt.Printf("after one window: copy readable=%v ledger entries=%d pending=%d (retried=%d)\n",
		readErr == nil, len(c.LedgerFor(victim)), c.PendingSyncs(), prop.Stats().Retried)
	if readErr == nil || c.PendingSyncs() != 0 {
		return fmt.Errorf("nodes: erasure did not propagate within one window")
	}
	fmt.Println("ok: every ledger-named copy dead within one propagation window")
	return nil
}

func cmdFig1() error {
	if err := gdprdata.CheckShape(); err != nil {
		return err
	}
	if err := gdprdata.RenderLeft(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	return gdprdata.RenderRight(os.Stdout)
}

// cmdMacro runs one macro scenario at CI scale on a fresh probe machine
// and prints its scorecard; with -trace it prints the deterministic op
// trace instead of executing it.
func cmdMacro(args []string) error {
	seed := uint64(42)
	trace := false
	var name string
	for _, a := range args {
		switch {
		case a == "-trace":
			trace = true
		case name == "":
			name = a
		default:
			n, err := strconv.ParseUint(a, 10, 64)
			if err != nil {
				return fmt.Errorf("macro: bad seed %q: %w", a, err)
			}
			seed = n
		}
	}
	names := make([]string, 0, 3)
	for _, sc := range workload.Scenarios() {
		names = append(names, sc.Name)
	}
	if name == "" {
		return fmt.Errorf("macro: usage: rgpdctl macro <scenario> [seed] [-trace] — scenarios: %s",
			strings.Join(names, ", "))
	}
	sc, ok := workload.LookupScenario(name)
	if !ok {
		return fmt.Errorf("macro: unknown scenario %q (scenarios: %s)", name, strings.Join(names, ", "))
	}
	mix := sc.MixFor(true)
	ops, err := workload.Generate(mix, seed)
	if err != nil {
		return err
	}
	if trace {
		_, err := os.Stdout.Write(workload.EncodeTrace(ops))
		return err
	}
	blocks, npdBlocks, inodes := workload.BootSizing(mix, ops)
	sys, err := core.Boot(core.Options{
		Clock:         simclock.NewSim(simclock.Epoch),
		CryptoRand:    xrand.NewReader(seed),
		AuthorityBits: 1024,
		PDDiskBlocks:  blocks,
		NPDDiskBlocks: npdBlocks,
		NInodes:       inodes,
		JournalBlocks: 256,
		Workers:       2,
	})
	if err != nil {
		return err
	}
	card, err := workload.RunScenario(workload.NewSystemTarget(sys), sc,
		workload.RunConfig{Seed: seed, Small: true, Pace: true})
	if err != nil {
		return err
	}
	workload.WriteScorecard(os.Stdout, card)
	if !card.Clean() {
		return fmt.Errorf("macro: regulator invariants violated")
	}
	return nil
}
