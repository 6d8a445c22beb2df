package cluster

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dbfs"
	"repro/internal/membrane"
	"repro/internal/simclock"
	"repro/internal/typedsl"
)

// userDSL is the paper's Listing 1 type (1-year retention).
const userDSL = `
type user {
  fields {
    name: string,
    pwd: string sensitive,
    year_of_birthdate: int
  };
  view v_name { name };
  view v_ano { age };
  consent {
    purpose1: all,
    purpose2: none,
    purpose3: ano
  };
  collection {
    web_form: user_form.html,
    third_party: fetch_data.py
  };
  origin: subject;
  age: 1Y;
  sensitivity: hight;
}
`

func aliasOpts() typedsl.CompileOptions {
	return typedsl.CompileOptions{FieldAliases: map[string]string{"age": "year_of_birthdate"}}
}

// nodeOpts is a small, fast per-node template for tests.
func nodeOpts() core.Options {
	return core.Options{
		AuthorityBits: 1024,
		PDDiskBlocks:  8192,
		NPDDiskBlocks: 2048,
		NInodes:       4096,
		JournalBlocks: 128,
		Workers:       2,
	}
}

// bootCluster builds an n-node cluster on one Sim clock with the user type
// declared everywhere.
func bootCluster(t *testing.T, n int, window time.Duration) (*Cluster, *simclock.Sim) {
	t.Helper()
	clk := simclock.NewSim(simclock.Epoch)
	opts := nodeOpts()
	opts.Clock = clk
	c, err := Boot(Options{Nodes: n, Node: opts, PropagationWindow: window})
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	if err := c.DeclareTypesDSL(userDSL, aliasOpts()); err != nil {
		t.Fatalf("DeclareTypesDSL: %v", err)
	}
	return c, clk
}

func rec(name string) dbfs.Record {
	return dbfs.Record{
		"name":              dbfs.S(name),
		"pwd":               dbfs.S("secret-" + name),
		"year_of_birthdate": dbfs.I(1990),
	}
}

// remoteFor picks any node that is not the subject's home.
func remoteFor(c *Cluster, subject string) int {
	h := c.HomeOf(subject)
	return (h + 1) % c.Nodes()
}

func TestPlacementGeometryIndependent(t *testing.T) {
	// HomeOf must be the raw subject hash mod node count — a pure function
	// of (subject, fleet size), never of any node's storage geometry.
	c, _ := bootCluster(t, 4, 0)
	spread := make(map[int]int)
	for i := 0; i < 64; i++ {
		s := fmt.Sprintf("subject-%03d", i)
		want := int(dbfs.SubjectHash(s) % 4)
		if got := c.HomeOf(s); got != want {
			t.Fatalf("HomeOf(%s) = %d, want SubjectHash%%4 = %d", s, got, want)
		}
		spread[want]++
	}
	for n, count := range spread {
		if count == 0 {
			t.Fatalf("node %d received no subjects out of 64", n)
		} else if count > 32 {
			t.Fatalf("node %d received %d/64 subjects — placement badly skewed", n, count)
		}
	}
}

func TestInsertRoutesToHome(t *testing.T) {
	c, _ := bootCluster(t, 3, 0)
	for i := 0; i < 12; i++ {
		s := fmt.Sprintf("alice-%d", i)
		pdid, err := c.Insert("user", s, rec(s))
		if err != nil {
			t.Fatalf("Insert %s: %v", s, err)
		}
		home := c.HomeOf(s)
		for n := 0; n < c.Nodes(); n++ {
			sys := c.Node(n)
			_, err := sys.DBFS().GetRecord(sys.DEDToken(), pdid)
			if n == home && err != nil {
				t.Fatalf("record %s unreadable on home node %d: %v", pdid, n, err)
			}
			if n != home && err == nil {
				t.Fatalf("record %s readable on non-home node %d", pdid, n)
			}
		}
		if got, err := c.GetRecord(pdid); err != nil || got["name"].S != s {
			t.Fatalf("GetRecord(%s) = %v, %v", pdid, got, err)
		}
	}
}

func TestMaterializeCopy(t *testing.T) {
	c, _ := bootCluster(t, 3, 0)
	subject := "carol"
	pdid, err := c.Insert("user", subject, rec(subject))
	if err != nil {
		t.Fatal(err)
	}
	home := c.HomeOf(subject)
	target := remoteFor(c, subject)

	if _, err := c.MaterializeCopy(pdid, home); !errors.Is(err, ErrHomeNode) {
		t.Fatalf("copy onto home node err = %v, want ErrHomeNode", err)
	}
	if _, err := c.MaterializeCopy(pdid, 99); !errors.Is(err, ErrBadNode) {
		t.Fatalf("copy onto node 99 err = %v, want ErrBadNode", err)
	}

	copyPDID, err := c.MaterializeCopy(pdid, target)
	if err != nil {
		t.Fatalf("MaterializeCopy: %v", err)
	}
	tn := c.Node(target)
	got, err := tn.DBFS().GetRecord(tn.DEDToken(), copyPDID)
	if err != nil || got["name"].S != subject {
		t.Fatalf("copy read = %v, %v", got, err)
	}
	cm, err := tn.DBFS().GetMembrane(tn.DEDToken(), copyPDID)
	if err != nil {
		t.Fatal(err)
	}
	if cm.CopyOf != pdid {
		t.Fatalf("copy CopyOf = %q, want origin %q", cm.CopyOf, pdid)
	}
	want := []Entry{{Subject: subject, PDID: copyPDID, Node: target, Origin: pdid, Home: home}}
	if got := c.LedgerFor(subject); !reflect.DeepEqual(got, want) {
		t.Fatalf("ledger = %+v, want %+v", got, want)
	}

	// Copying an erased record must fail.
	if _, err := c.Erase(subject); err != nil {
		t.Fatal(err)
	}
	if _, err := c.MaterializeCopy(pdid, target); !errors.Is(err, membrane.ErrErased) {
		t.Fatalf("copy of erased err = %v, want ErrErased", err)
	}
}

func TestLedgerSurvivesRouterRestart(t *testing.T) {
	c, _ := bootCluster(t, 3, 0)
	var subjects []string
	for i := 0; i < 6; i++ {
		s := fmt.Sprintf("dora-%d", i)
		subjects = append(subjects, s)
		pdid, err := c.Insert("user", s, rec(s))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.MaterializeCopy(pdid, remoteFor(c, s)); err != nil {
			t.Fatal(err)
		}
	}
	before := c.LedgerEntries()
	if len(before) != 6 {
		t.Fatalf("ledger has %d entries, want 6", len(before))
	}

	// A new router over the same nodes must reload the full copy map from
	// node storage — the ledger is durable state, not router memory.
	nodes := make([]*core.System, c.Nodes())
	for i := range nodes {
		nodes[i] = c.Node(i)
	}
	c2, err := New(nodes, 0)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if got := c2.LedgerEntries(); !reflect.DeepEqual(got, before) {
		t.Fatalf("reloaded ledger = %+v, want %+v", got, before)
	}
	if n := c2.PendingSyncs(); n != 0 {
		t.Fatalf("clean restart queued %d syncs, want 0", n)
	}
}

func TestConsentFanout(t *testing.T) {
	c, _ := bootCluster(t, 2, 0)
	subject := "erin"
	pdid, err := c.Insert("user", subject, rec(subject))
	if err != nil {
		t.Fatal(err)
	}
	target := remoteFor(c, subject)
	copyPDID, err := c.MaterializeCopy(pdid, target)
	if err != nil {
		t.Fatal(err)
	}

	rep, err := c.SetConsent(subject, "purpose2", membrane.Grant{Kind: membrane.GrantAll})
	if err != nil {
		t.Fatalf("SetConsent: %v", err)
	}
	if !rep.OK() || !reflect.DeepEqual(rep.Nodes, []int{target}) {
		t.Fatalf("fanout report = %+v", rep)
	}
	tn := c.Node(target)
	cm, err := tn.DBFS().GetMembrane(tn.DEDToken(), copyPDID)
	if err != nil {
		t.Fatal(err)
	}
	if g := cm.Consents["purpose2"]; g.Kind != membrane.GrantAll {
		t.Fatalf("copy consent purpose2 = %v, want all", g)
	}

	if _, err := c.WithdrawConsent(subject, "purpose1"); err != nil {
		t.Fatalf("WithdrawConsent: %v", err)
	}
	cm, err = tn.DBFS().GetMembrane(tn.DEDToken(), copyPDID)
	if err != nil {
		t.Fatal(err)
	}
	if g := cm.Consents["purpose1"]; g.Kind != membrane.GrantNone {
		t.Fatalf("copy consent purpose1 after withdraw = %v, want none", g)
	}
}

func TestEraseKillsRemoteCopies(t *testing.T) {
	c, _ := bootCluster(t, 3, 0)
	subject := "frank"
	pdid, err := c.Insert("user", subject, rec(subject))
	if err != nil {
		t.Fatal(err)
	}
	target := remoteFor(c, subject)
	copyPDID, err := c.MaterializeCopy(pdid, target)
	if err != nil {
		t.Fatal(err)
	}

	rep, err := c.Erase(subject)
	if err != nil {
		t.Fatalf("Erase: %v", err)
	}
	if !rep.Fanout.OK() {
		t.Fatalf("fanout failed: %+v", rep.Fanout)
	}
	if len(rep.Erased) != 1 || rep.Erased[0] != pdid {
		t.Fatalf("home erased = %v, want [%s]", rep.Erased, pdid)
	}
	// The origin and the copy are both crypto-erased, and the ledger is
	// drained — no node is still named as a copy holder.
	tn := c.Node(target)
	if _, err := tn.DBFS().GetRecord(tn.DEDToken(), copyPDID); err == nil {
		t.Fatal("copy still readable after cluster erase")
	}
	cm, err := tn.DBFS().GetMembrane(tn.DEDToken(), copyPDID)
	if err != nil || !cm.Erased {
		t.Fatalf("copy membrane after erase = %+v, %v, want Erased", cm, err)
	}
	if entries := c.LedgerFor(subject); len(entries) != 0 {
		t.Fatalf("ledger after erase = %+v, want empty", entries)
	}
	// Shredded everywhere: no node's disk holds the plaintext password.
	for i := 0; i < c.Nodes(); i++ {
		if hits := c.Node(i).ResidueScan([]byte("secret-" + subject)); len(hits) != 0 {
			t.Fatalf("plaintext residue on node %d: %v", i, hits)
		}
	}
}

func TestErasePartialFailureRetriesWithinWindow(t *testing.T) {
	const window = time.Minute
	c, clk := bootCluster(t, 2, window)
	subject := "grace"
	pdid, err := c.Insert("user", subject, rec(subject))
	if err != nil {
		t.Fatal(err)
	}
	target := remoteFor(c, subject)
	copyPDID, err := c.MaterializeCopy(pdid, target)
	if err != nil {
		t.Fatal(err)
	}

	c.FailNode(target, 1)
	rep, err := c.Erase(subject)
	if err != nil {
		t.Fatalf("Erase: %v", err)
	}
	if rep.Fanout.OK() || !errors.Is(rep.Fanout.Failed[0], ErrInjected) {
		t.Fatalf("fanout = %+v, want injected failure on node %d", rep.Fanout, target)
	}
	if n := c.PendingSyncs(); n != 1 {
		t.Fatalf("pending syncs = %d, want 1", n)
	}
	// The copy survives the failed fan-out (that is the partial failure)…
	tn := c.Node(target)
	if _, err := tn.DBFS().GetRecord(tn.DEDToken(), copyPDID); err != nil {
		t.Fatalf("copy should still be readable before retry: %v", err)
	}

	// …but the propagator erases it within one window once the node heals.
	p := c.StartPropagator()
	defer p.Stop()
	clk.Advance(window + time.Second)
	p.Sync()
	if _, err := tn.DBFS().GetRecord(tn.DEDToken(), copyPDID); err == nil {
		t.Fatal("copy still readable one window after the node healed")
	}
	if n := c.PendingSyncs(); n != 0 {
		t.Fatalf("pending syncs after retry = %d, want 0", n)
	}
	if entries := c.LedgerFor(subject); len(entries) != 0 {
		t.Fatalf("ledger after retry = %+v, want empty", entries)
	}
	st := p.Stats()
	if st.Passes == 0 || st.Retried != 1 || st.Failed != 0 {
		t.Fatalf("propagator stats = %+v", st)
	}
}

func TestPersistentFaultKeepsRetryingOncePerWindow(t *testing.T) {
	const window = time.Minute
	c, clk := bootCluster(t, 2, window)
	subject := "heidi"
	pdid, err := c.Insert("user", subject, rec(subject))
	if err != nil {
		t.Fatal(err)
	}
	target := remoteFor(c, subject)
	if _, err := c.MaterializeCopy(pdid, target); err != nil {
		t.Fatal(err)
	}
	c.FailNode(target, 3) // fan-out + two retry passes
	if _, err := c.Erase(subject); err != nil {
		t.Fatal(err)
	}
	p := c.StartPropagator()
	defer p.Stop()
	for i := 0; i < 2; i++ {
		clk.Advance(window + time.Second)
		p.Sync()
		if n := c.PendingSyncs(); n != 1 {
			t.Fatalf("retry %d: pending = %d, want 1 (fault still armed)", i, n)
		}
	}
	clk.Advance(window + time.Second)
	p.Sync()
	if n := c.PendingSyncs(); n != 0 {
		t.Fatalf("pending after fault cleared = %d, want 0", n)
	}
	st := p.Stats()
	if st.Failed != 2 {
		t.Fatalf("propagator stats = %+v, want 2 failed retries", st)
	}
}

func TestRouterRestartResumesErasure(t *testing.T) {
	const window = time.Minute
	c, clk := bootCluster(t, 2, window)
	subject := "ivan"
	pdid, err := c.Insert("user", subject, rec(subject))
	if err != nil {
		t.Fatal(err)
	}
	target := remoteFor(c, subject)
	copyPDID, err := c.MaterializeCopy(pdid, target)
	if err != nil {
		t.Fatal(err)
	}
	c.FailNode(target, 1)
	if _, err := c.Erase(subject); err != nil {
		t.Fatal(err)
	}

	// The router dies with the retry still queued. A new router over the
	// same nodes must rediscover the unfinished erasure from durable state
	// alone: the ledger still names the node, and the origin membrane is
	// marked erased.
	nodes := make([]*core.System, c.Nodes())
	for i := range nodes {
		nodes[i] = c.Node(i)
	}
	c2, err := New(nodes, window)
	if err != nil {
		t.Fatal(err)
	}
	if n := c2.PendingSyncs(); n != 1 {
		t.Fatalf("reconcile queued %d syncs, want 1", n)
	}
	p := c2.StartPropagator()
	defer p.Stop()
	clk.Advance(window + time.Second)
	p.Sync()
	tn := c2.Node(target)
	if _, err := tn.DBFS().GetRecord(tn.DEDToken(), copyPDID); err == nil {
		t.Fatal("copy still readable after restart+retry")
	}
	if entries := c2.LedgerFor(subject); len(entries) != 0 {
		t.Fatalf("ledger after restart+retry = %+v, want empty", entries)
	}
}

func TestAccessBatchMergesCopies(t *testing.T) {
	c, _ := bootCluster(t, 3, 0)
	subjects := []string{"judy", "kim", "leo", "mallory"}
	copies := make(map[string]string)
	for _, s := range subjects {
		pdid, err := c.Insert("user", s, rec(s))
		if err != nil {
			t.Fatal(err)
		}
		if s != "mallory" { // one subject with no copies
			cp, err := c.MaterializeCopy(pdid, remoteFor(c, s))
			if err != nil {
				t.Fatal(err)
			}
			copies[s] = cp
		}
	}
	reps, err := c.AccessBatch(subjects)
	if err != nil {
		t.Fatalf("AccessBatch: %v", err)
	}
	for i, s := range subjects {
		rep := reps[i]
		if rep.SubjectID != s {
			t.Fatalf("report %d subject = %s, want %s (request order)", i, rep.SubjectID, s)
		}
		exps := rep.Data["user"]
		wantN := 2
		if s == "mallory" {
			wantN = 1
		}
		if len(exps) != wantN {
			t.Fatalf("%s: %d user exports, want %d (home + copies)", s, len(exps), wantN)
		}
		var sawCopy bool
		for _, e := range exps {
			if e.CopyOf != "" {
				sawCopy = true
			}
		}
		if sawCopy == (s == "mallory") {
			t.Fatalf("%s: copy provenance wrong in %+v", s, exps)
		}
	}
	// Deterministic merge: a second run returns byte-identical data maps
	// (the processing history legitimately grows — the first batch itself
	// is audited — so only the merged Data ordering is compared).
	again, err := c.AccessBatch(subjects)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reps {
		if !reflect.DeepEqual(reps[i].Data, again[i].Data) {
			t.Fatalf("AccessBatch Data for %s not deterministic", subjects[i])
		}
	}
}

func TestSweepExpiredFansOutAndPrunes(t *testing.T) {
	c, clk := bootCluster(t, 2, 0)
	subject := "nina"
	pdid, err := c.Insert("user", subject, rec(subject))
	if err != nil {
		t.Fatal(err)
	}
	target := remoteFor(c, subject)
	copyPDID, err := c.MaterializeCopy(pdid, target)
	if err != nil {
		t.Fatal(err)
	}

	// Nothing expired yet.
	deleted, err := c.SweepExpired()
	if err != nil || len(deleted) != 0 {
		t.Fatalf("early sweep = %v, %v", deleted, err)
	}

	// Past the 1-year TTL both the original and the copy expire — the
	// sweep reaches every node, and the ledger entry is pruned with the
	// copy.
	clk.Advance(366 * 24 * time.Hour)
	deleted, err = c.SweepExpired()
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	found := map[string]bool{}
	for _, d := range deleted {
		found[d] = true
	}
	if !found[pdid] || !found[copyPDID] {
		t.Fatalf("sweep deleted %v, want both %s and %s", deleted, pdid, copyPDID)
	}
	if entries := c.LedgerFor(subject); len(entries) != 0 {
		t.Fatalf("ledger after sweep = %+v, want pruned", entries)
	}
}

func TestNodeNames(t *testing.T) {
	c, _ := bootCluster(t, 2, 0)
	for i := 0; i < c.Nodes(); i++ {
		if got, want := c.Node(i).NodeName(), fmt.Sprintf("n%d", i); got != want {
			t.Fatalf("node %d name = %q, want %q", i, got, want)
		}
	}
	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if len(st) != 2 || st[0].Name != "n0" || st[1].Name != "n1" {
		t.Fatalf("status = %+v", st)
	}
}

func TestBootRejectsBadFleetSize(t *testing.T) {
	if _, err := Boot(Options{Nodes: 9, Node: nodeOpts()}); err == nil {
		t.Fatal("Boot with 9 nodes should fail")
	}
	if _, err := Boot(Options{Nodes: -1, Node: nodeOpts()}); err == nil {
		t.Fatal("Boot with -1 nodes should fail")
	}
}
