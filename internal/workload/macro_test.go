package workload

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dbfs"
	"repro/internal/ded"
	"repro/internal/inode"
	"repro/internal/membrane"
	"repro/internal/ps"
	"repro/internal/purpose"
	"repro/internal/rights"
	"repro/internal/simclock"
	"repro/internal/typedsl"
	"repro/internal/xrand"
)

func bootMacroSystem(t *testing.T, mix MacroMix, ops []Op, seed uint64) *core.System {
	t.Helper()
	blocks, npdBlocks, inodes := BootSizing(mix, ops)
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
		t.Fatal(err)
	}
	return sys
}

func TestGenerateDeterministic(t *testing.T) {
	sc, ok := LookupScenario("health-records")
	if !ok {
		t.Fatal("health-records scenario missing")
	}
	mix := sc.MixFor(true)
	a, err := Generate(mix, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
	b, err := Generate(mix, 7)
	if err != nil {
		t.Fatal(err)
	}
	ta, tb := EncodeTrace(a), EncodeTrace(b)
	if !bytes.Equal(ta, tb) {
		t.Fatal("same seed produced different traces")
	}
	c, err := Generate(mix, 8)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ta, EncodeTrace(c)) {
		t.Fatal("different seeds produced identical traces")
	}
	// The merged trace is in arrival order with dense sequence numbers, and
	// every enabled class actually shows up.
	seen := make(map[OpClass]bool)
	for i, op := range a {
		if op.Seq != i {
			t.Fatalf("op %d has Seq %d", i, op.Seq)
		}
		if i > 0 && op.At < a[i-1].At {
			t.Fatalf("op %d arrives before op %d", i, i-1)
		}
		seen[op.Class] = true
	}
	for _, class := range Classes {
		if mix.rate(class) > 0 && !seen[class] {
			t.Fatalf("class %s enabled but absent from trace", class)
		}
	}
}

// countingTarget counts every Target call, to prove a malformed mix
// applies nothing.
type countingTarget struct{ calls int }

func (t *countingTarget) Name() string { t.calls++; return "counting" }
func (t *countingTarget) DeclareTypesDSL(string, typedsl.CompileOptions) error {
	t.calls++
	return nil
}
func (t *countingTarget) CreateType(*dbfs.Schema) error { t.calls++; return nil }
func (t *countingTarget) Register(*purpose.Decl, *ded.Func) error {
	t.calls++
	return nil
}
func (t *countingTarget) SetRateLimit(string, float64, float64) error { t.calls++; return nil }
func (t *countingTarget) Insert(string, string, dbfs.Record) (string, error) {
	t.calls++
	return "", nil
}
func (t *countingTarget) Update(string, dbfs.Record) error { t.calls++; return nil }
func (t *countingTarget) Invoke(ps.InvokeRequest) (*ded.Result, error) {
	t.calls++
	return &ded.Result{}, nil
}
func (t *countingTarget) Access(string) (*rights.AccessReport, error) { t.calls++; return nil, nil }
func (t *countingTarget) AccessBatch([]string) ([]*rights.AccessReport, error) {
	t.calls++
	return nil, nil
}
func (t *countingTarget) Erase(string) ([]string, error)                  { t.calls++; return nil, nil }
func (t *countingTarget) SetConsent(string, string, membrane.Grant) error { t.calls++; return nil }
func (t *countingTarget) WithdrawConsent(string, string) error            { t.calls++; return nil }
func (t *countingTarget) SweepExpired() ([]string, error)                 { t.calls++; return nil, nil }
func (t *countingTarget) GetRecord(string) (dbfs.Record, error)           { t.calls++; return nil, nil }
func (t *countingTarget) ResidueScan([][]byte) int                        { t.calls++; return 0 }
func (t *countingTarget) CostOps() uint64                                 { t.calls++; return 0 }
func (t *countingTarget) SimClock() *simclock.Sim                         { t.calls++; return nil }

func TestValidateMalformedMix(t *testing.T) {
	sc, _ := LookupScenario("health-records")
	base := sc.MixFor(true)
	cloneMix := func() MacroMix {
		m := base
		m.Rates = make(map[OpClass]Rate, len(base.Rates))
		for c, r := range base.Rates {
			m.Rates[c] = r
		}
		m.Limits = append([]LimitSpec(nil), base.Limits...)
		return m
	}
	cases := []struct {
		name   string
		mutate func(*MacroMix)
	}{
		{"empty name", func(m *MacroMix) { m.Name = "" }},
		{"zero duration", func(m *MacroMix) { m.Duration = 0 }},
		{"zero subjects", func(m *MacroMix) { m.Subjects = 0 }},
		{"negative skew", func(m *MacroMix) { m.Skew = -1 }},
		{"withdraw prob > 1", func(m *MacroMix) { m.WithdrawProb = 1.5 }},
		{"negative rate", func(m *MacroMix) { m.Rates[ClassInsert] = Rate{PerSec: -1} }},
		{"burst length exceeds period", func(m *MacroMix) {
			m.Rates[ClassInsert] = Rate{PerSec: 1, BurstEvery: time.Second, BurstLen: 2 * time.Second, BurstFactor: 2}
		}},
		{"burst period without length", func(m *MacroMix) {
			m.Rates[ClassInsert] = Rate{PerSec: 1, BurstEvery: time.Second, BurstFactor: 2}
		}},
		{"burst factor below 1", func(m *MacroMix) {
			m.Rates[ClassInsert] = Rate{PerSec: 1, BurstEvery: time.Second, BurstLen: time.Second, BurstFactor: 0.5}
		}},
		{"unknown class", func(m *MacroMix) { m.Rates[OpClass(99)] = Rate{PerSec: 1} }},
		{"runaway expected ops", func(m *MacroMix) { m.Rates[ClassInsert] = Rate{PerSec: 1e9} }},
		{"batch rate without size", func(m *MacroMix) { m.BatchSize = 0 }},
		{"query rate without purposes", func(m *MacroMix) { m.QueryPurposes = nil }},
		{"consent rate without purposes", func(m *MacroMix) { m.ConsentPurposes = nil }},
		{"limit with empty purpose", func(m *MacroMix) { m.Limits = []LimitSpec{{Purpose: "", RatePerSec: 1, Burst: 1}} }},
		{"limit with zero rate", func(m *MacroMix) { m.Limits = []LimitSpec{{Purpose: "care", RatePerSec: 0, Burst: 1}} }},
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("base mix invalid: %v", err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := cloneMix()
			tc.mutate(&m)
			err := m.Validate()
			if !errors.Is(err, ErrBadMix) {
				t.Fatalf("Validate = %v, want ErrBadMix", err)
			}
			if ops, err := Generate(m, 1); err == nil || ops != nil {
				t.Fatalf("Generate on bad mix returned %d ops, err %v", len(ops), err)
			}
			// A malformed mix must apply nothing: Prepare fails before a
			// single target call.
			ct := &countingTarget{}
			if _, err := Prepare(ct, sc, m); !errors.Is(err, ErrBadMix) {
				t.Fatalf("Prepare = %v, want ErrBadMix", err)
			}
			if ct.calls != 0 {
				t.Fatalf("Prepare on bad mix made %d target calls", ct.calls)
			}
		})
	}
}

// TestSkewedInsertsFitBootSizing: the PD disk is split into equal
// partitions and subjects route to them by hash, so a Zipf-hot subject
// loads one partition more than the rest. A skew-1.2 insert stream on a
// machine sized by BootSizing must still find space on every partition.
func TestSkewedInsertsFitBootSizing(t *testing.T) {
	sc, _ := LookupScenario("health-records")
	mix := MacroMix{
		Name: "skewed-ingest", Duration: 50 * time.Second, Subjects: 500, Skew: 1.2,
		Rates: map[OpClass]Rate{ClassInsert: {PerSec: 40}},
	}
	ops, err := Generate(mix, 5)
	if err != nil {
		t.Fatal(err)
	}
	tgt := NewSystemTarget(bootMacroSystem(t, mix, ops, 5))
	if _, err := Prepare(tgt, sc, mix); err != nil {
		t.Fatal(err)
	}
	perSubject := make(map[string]int)
	for _, op := range ops {
		perSubject[op.Subject]++
		if _, err := tgt.Insert(sc.TypeName, op.Subject, sc.Record(op.Subject, secretOf(sc.Name, op.Subject, op.Seq), op.Seq)); err != nil {
			if errors.Is(err, inode.ErrNoSpace) {
				t.Fatalf("insert %d of %d (subject %s): out of space: %v", op.Seq, len(ops), op.Subject, err)
			}
			t.Fatalf("insert %d: %v", op.Seq, err)
		}
	}
	// The stream is really skewed: its hottest subject takes far more
	// than a uniform share.
	hottest := 0
	for _, n := range perSubject {
		hottest = max(hottest, n)
	}
	if hottest < 10*len(ops)/mix.Subjects {
		t.Fatalf("hottest subject has %d of %d inserts over %d subjects: not skewed", hottest, len(ops), mix.Subjects)
	}
}

// TestSoakCluster2 drives the mixed breach-response trace concurrently
// over a 2-node fleet — the -race harness for the macro path. Outcomes are
// unordered, but nothing may genuinely fail.
func TestSoakCluster2(t *testing.T) {
	sc, _ := LookupScenario("breach-response")
	mix := sc.MixFor(true)
	ops, err := Generate(mix, 11)
	if err != nil {
		t.Fatal(err)
	}
	blocks, npdBlocks, inodes := BootSizing(mix, ops)
	cl, err := cluster.Boot(cluster.Options{
		Nodes: 2,
		Node: core.Options{
			AuthorityBits: 1024,
			PDDiskBlocks:  blocks,
			NPDDiskBlocks: npdBlocks,
			NInodes:       inodes,
			JournalBlocks: 256,
			Workers:       2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ok, rejected, denied, failed, err := Soak(&ClusterTarget{C: cl}, sc, mix, ops, 8)
	if err != nil {
		t.Fatal(err)
	}
	if total := ok + rejected + denied + failed; total != len(ops) {
		t.Fatalf("outcomes %d != ops %d", total, len(ops))
	}
	if failed != 0 {
		t.Fatalf("%d genuine failures under concurrent load (ok=%d rejected=%d denied=%d)",
			failed, ok, rejected, denied)
	}
	if ok == 0 {
		t.Fatal("no op succeeded")
	}
}
