package cluster

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/builtins"
	"repro/internal/core"
	"repro/internal/dbfs"
	"repro/internal/ded"
	"repro/internal/membrane"
	"repro/internal/ps"
	"repro/internal/purpose"
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
	if got := c.CopyNodes(subject); !reflect.DeepEqual(got, []int{target}) {
		t.Fatalf("CopyNodes = %v, want [%d]", got, target)
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
	before := make(map[string][]int)
	for _, s := range subjects {
		before[s] = c.CopyNodes(s)
		if len(before[s]) != 1 {
			t.Fatalf("CopyNodes(%s) = %v, want one node", s, before[s])
		}
	}

	// A new router over the same nodes must reload every node set from
	// node storage — the ledger is durable state, not router memory — and
	// its sync of in-sync copies must write nothing.
	nodes := make([]*core.System, c.Nodes())
	writes := make([]uint64, len(nodes))
	for i := range nodes {
		nodes[i] = c.Node(i)
		writes[i] = nodes[i].Stats().PDDisk.Writes
	}
	c2, err := New(nodes, 0)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, s := range subjects {
		if got := c2.CopyNodes(s); !reflect.DeepEqual(got, before[s]) {
			t.Fatalf("reloaded CopyNodes(%s) = %v, want %v", s, got, before[s])
		}
	}
	for i, n := range nodes {
		if w := n.Stats().PDDisk.Writes; w != writes[i] {
			t.Fatalf("restart over in-sync nodes wrote %d PD blocks on node %d, want 0", w-writes[i], i)
		}
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
	if nodes := c.CopyNodes(subject); len(nodes) != 0 {
		t.Fatalf("CopyNodes after erase = %v, want empty", nodes)
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
	if nodes := c.CopyNodes(subject); len(nodes) != 0 {
		t.Fatalf("CopyNodes after retry = %v, want empty", nodes)
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
	c, _ := bootCluster(t, 2, window)
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
	// same nodes must finish the erasure from durable state alone — the
	// ledger still names the node, and the copy's root is erased — before
	// New returns.
	nodes := make([]*core.System, c.Nodes())
	for i := range nodes {
		nodes[i] = c.Node(i)
	}
	c2, err := New(nodes, window)
	if err != nil {
		t.Fatal(err)
	}
	tn := c2.Node(target)
	if _, err := tn.DBFS().GetRecord(tn.DEDToken(), copyPDID); err == nil {
		t.Fatal("copy still readable after restart")
	}
	if nodes := c2.CopyNodes(subject); len(nodes) != 0 {
		t.Fatalf("CopyNodes after restart = %v, want empty", nodes)
	}
	if n := c2.PendingSyncs(); n != 0 {
		t.Fatalf("restart queued %d syncs, want 0", n)
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
	// sweep reaches every node, and the copy's node leaves the subject's
	// set with the copy.
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
	if nodes := c.CopyNodes(subject); len(nodes) != 0 {
		t.Fatalf("CopyNodes after sweep = %v, want pruned", nodes)
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

func TestLoadLedgerRejectsMalformed(t *testing.T) {
	c, _ := bootCluster(t, 3, 0)
	nodes := []*core.System{c.Node(0), c.Node(1), c.Node(2)}
	const subject = "olga"
	home := c.HomeOf(subject)
	remote := remoteFor(c, subject)
	for _, tc := range []struct {
		name string
		node int
		file string
		data []byte
	}{
		{"empty file", home, subjectFile(subject), []byte{}},
		{"two bytes", home, subjectFile(subject), []byte{1 << remote, 0}},
		{"bit at the node count", home, subjectFile(subject), []byte{1<<remote | 1<<3}},
		{"top bit", home, subjectFile(subject), []byte{1 << 7}},
		{"home bit", home, subjectFile(subject), []byte{1<<remote | 1<<home}},
		{"non-hex name", home, ledgerDir + "/not-hex", []byte{1 << remote}},
		{"file off the home node", remote, subjectFile(subject), []byte{1 << home}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := nodes[tc.node].NPD()
			if err := fs.MkdirAll(ledgerDir); err != nil {
				t.Fatal(err)
			}
			if err := fs.WriteFile(tc.file, tc.data); err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := fs.Remove(tc.file); err != nil {
					t.Fatal(err)
				}
			}()
			_, err := New(nodes, 0)
			if err == nil {
				t.Fatalf("New accepted ledger file %s = %v on node %d", tc.file, tc.data, tc.node)
			}
			t.Log(err)
		})
	}
	// The same fleet with a well-formed file loads it.
	fs := nodes[home].NPD()
	if err := fs.WriteFile(subjectFile(subject), []byte{1 << remote}); err != nil {
		t.Fatal(err)
	}
	c2, err := New(nodes, 0)
	if err != nil {
		t.Fatalf("New over a well-formed ledger: %v", err)
	}
	// The named node holds nothing, so the restart sync drops it.
	if got := c2.CopyNodes(subject); len(got) != 0 {
		t.Fatalf("CopyNodes over a node without copies = %v, want empty", got)
	}
	if fs.Exists(subjectFile(subject)) {
		t.Fatal("ledger file kept after its node set emptied")
	}
}

func TestConsentReachesLocalCopyOfRemoteCopy(t *testing.T) {
	c, _ := bootCluster(t, 2, 0)
	subject := "pia"
	pdid, err := c.Insert("user", subject, rec(subject))
	if err != nil {
		t.Fatal(err)
	}
	target := remoteFor(c, subject)
	copyPDID, err := c.MaterializeCopy(pdid, target)
	if err != nil {
		t.Fatal(err)
	}
	// A node-local copy of the remote copy: the router never sees it, but
	// its CopyOf names the same root on the home node.
	tn := c.Node(target)
	res, err := tn.PS().Invoke(ps.InvokeRequest{Processing: builtins.CopyName, PDRef: copyPDID})
	if err != nil || len(res.PDRefs) != 1 {
		t.Fatalf("copy builtin = %+v, %v, want one copy", res, err)
	}
	if _, err := c.WithdrawConsent(subject, "purpose1"); err != nil {
		t.Fatalf("WithdrawConsent: %v", err)
	}
	for _, p := range append([]string{copyPDID}, res.PDRefs...) {
		cm, err := tn.DBFS().GetMembrane(tn.DEDToken(), p)
		if err != nil {
			t.Fatal(err)
		}
		if g := cm.Consents["purpose1"]; g.Kind != membrane.GrantNone {
			t.Fatalf("copy %s on node %d: purpose1 = %v after cluster withdraw, want none", p, target, g)
		}
	}
}

func TestFanoutLeavesLiveCopyOfLiveOrigin(t *testing.T) {
	// A ledger that over-names (a materialize that died before its insert)
	// must cost no live copy: the fan-out erases only copies whose root is
	// erased, and drops a named node that holds nothing.
	c, _ := bootCluster(t, 3, 0)
	subject := "quinn"
	a, err := c.Insert("user", subject, rec(subject))
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Insert("user", subject, rec(subject+"-b"))
	if err != nil {
		t.Fatal(err)
	}
	home := c.HomeOf(subject)
	target := remoteFor(c, subject)
	empty := (home + 2) % c.Nodes()
	copyPDID, err := c.MaterializeCopy(a, target)
	if err != nil {
		t.Fatal(err)
	}
	// Crashed copies of b: both nodes named, no copy of b inserted.
	for _, n := range []int{target, empty} {
		if err := c.ledger.add(subject, home, n); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Node(home).Rights().EraseRecord(b); err != nil {
		t.Fatal(err)
	}
	rep, err := c.SetConsent(subject, "purpose2", membrane.Grant{Kind: membrane.GrantAll})
	if err != nil || !rep.OK() {
		t.Fatalf("SetConsent = %+v, %v", rep, err)
	}
	tn := c.Node(target)
	if _, err := tn.DBFS().GetRecord(tn.DEDToken(), copyPDID); err != nil {
		t.Fatalf("live copy of live origin %s unreadable after fan-out: %v", a, err)
	}
	cm, err := tn.DBFS().GetMembrane(tn.DEDToken(), copyPDID)
	if err != nil || cm.Consents["purpose2"].Kind != membrane.GrantAll {
		t.Fatalf("copy membrane = %+v, %v, want purpose2 all", cm, err)
	}
	if got := c.CopyNodes(subject); !reflect.DeepEqual(got, []int{target}) {
		t.Fatalf("CopyNodes = %v, want [%d]", got, target)
	}
}

func TestMaterializeEraseSweepInterleave(t *testing.T) {
	c, _ := bootCluster(t, 3, 0)
	const rounds = 12
	subjects := []string{"rita-0", "rita-1", "rita-2", "rita-3"}
	origins := make(map[string][]string)
	for _, s := range subjects {
		for i := 0; i < 2; i++ {
			pdid, err := c.Insert("user", s, rec(s))
			if err != nil {
				t.Fatal(err)
			}
			origins[s] = append(origins[s], pdid)
		}
	}
	// Subjects 0 and 2 are erased part-way through; the others keep
	// copying and changing consent.
	erased := map[string]bool{subjects[0]: true, subjects[2]: true}
	var wg sync.WaitGroup
	errc := make(chan error, 4*rounds*len(subjects)) // room for every send, so no worker blocks
	run := func(f func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				f(i)
			}
		}()
	}
	run(func(i int) {
		for _, s := range subjects {
			target := (c.HomeOf(s) + 1 + i%2) % c.Nodes()
			if _, err := c.MaterializeCopy(origins[s][i%2], target); err != nil && !errors.Is(err, membrane.ErrErased) {
				errc <- fmt.Errorf("MaterializeCopy %s: %w", s, err)
			}
		}
	})
	run(func(i int) {
		for _, s := range subjects {
			var err error
			if i%2 == 0 {
				_, err = c.SetConsent(s, "purpose2", membrane.Grant{Kind: membrane.GrantAll})
			} else {
				_, err = c.WithdrawConsent(s, "purpose2")
			}
			if err != nil {
				errc <- fmt.Errorf("consent %s: %w", s, err)
			}
		}
	})
	run(func(i int) {
		if i != rounds/2 {
			return
		}
		for s := range erased {
			if _, err := c.Erase(s); err != nil {
				errc <- fmt.Errorf("Erase %s: %w", s, err)
			}
		}
	})
	run(func(int) {
		if _, err := c.SweepExpired(); err != nil {
			errc <- fmt.Errorf("SweepExpired: %w", err)
		}
	})
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	c.retryPending(true)
	if n := c.PendingSyncs(); n != 0 {
		t.Fatalf("%d syncs still pending after a forced retry", n)
	}
	for _, s := range subjects {
		named := c.CopyNodes(s)
		for n := 0; n < c.Nodes(); n++ {
			if n == c.HomeOf(s) {
				continue
			}
			sys := c.Node(n)
			pdids, err := sys.DBFS().ListBySubject(sys.DEDToken(), s)
			if err != nil {
				t.Fatal(err)
			}
			ms, err := sys.DBFS().GetMembranes(sys.DEDToken(), pdids)
			if err != nil {
				t.Fatal(err)
			}
			for i, m := range ms {
				if m.Erased {
					continue
				}
				if !slices.Contains(named, n) {
					t.Errorf("%s: node %d holds unerased %s but CopyNodes = %v", s, n, pdids[i], named)
				}
				if erased[s] {
					t.Errorf("%s: erased subject's copy %s on node %d is live", s, pdids[i], n)
				}
			}
			for _, p := range pdids {
				if _, err := sys.DBFS().GetRecord(sys.DEDToken(), p); err == nil && erased[s] {
					t.Errorf("%s: erased subject's copy %s on node %d is readable", s, p, n)
				}
			}
		}
	}
}

func TestCopyOfDerivedFollowsFamilyAfterRootSwept(t *testing.T) {
	// A derived record names its source's root as CopyOf but has its own,
	// later CreatedAt, so it outlives the root. A remote copy of it must
	// still follow the family on the home node once the root is swept:
	// consent reaches it and a cluster Erase crypto-erases it.
	c, clk := bootCluster(t, 2, 0)
	if err := c.CreateType(&dbfs.Schema{
		Name:   "age_pd",
		Fields: []dbfs.Field{{Name: "age", Type: dbfs.TypeInt}},
	}); err != nil {
		t.Fatal(err)
	}
	subject := "sven"
	home := c.HomeOf(subject)
	hn := c.Node(home)
	decl := &purpose.Decl{Name: "purpose3", Description: "Derive the age",
		Basis: purpose.BasisConsent, Reads: []string{"user.year_of_birthdate"}, Produces: "age_pd"}
	impl := &ded.Func{Name: "derive_age", Purpose: "purpose3",
		DeclaredReads: []string{"user.year_of_birthdate"},
		Fn: func(x *ded.Ctx) (ded.Output, error) {
			v, err := x.Field("year_of_birthdate")
			if err != nil {
				return ded.Output{}, err
			}
			return ded.Output{Generated: &ded.GeneratedPD{
				TypeName: "age_pd", SubjectID: x.SubjectID(),
				Fields: dbfs.Record{"age": dbfs.I(2023 - v.I)},
			}}, nil
		}}
	if err := hn.PS().Register(decl, impl, false); err != nil {
		t.Fatal(err)
	}
	root, err := c.Insert("user", subject, rec(subject))
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(180 * 24 * time.Hour)
	res, err := hn.PS().Invoke(ps.InvokeRequest{Processing: "purpose3", PDRef: root})
	if err != nil || len(res.PDRefs) != 1 {
		t.Fatalf("derive = %+v, %v, want one derived record", res, err)
	}
	target := remoteFor(c, subject)
	copyPDID, err := c.MaterializeCopy(res.PDRefs[0], target)
	if err != nil {
		t.Fatal(err)
	}
	// Past the root's 1-year TTL, before the derived record's.
	clk.Advance(200 * 24 * time.Hour)
	deleted, err := c.SweepExpired()
	if err != nil || !reflect.DeepEqual(deleted, []string{root}) {
		t.Fatalf("sweep = %v, %v, want only the root %s", deleted, err, root)
	}
	tn := c.Node(target)
	if rep, err := c.WithdrawConsent(subject, "purpose1"); err != nil || !rep.OK() {
		t.Fatalf("WithdrawConsent = %+v, %v", rep, err)
	}
	cm, err := tn.DBFS().GetMembrane(tn.DEDToken(), copyPDID)
	if err != nil || cm.Consents["purpose1"].Kind != membrane.GrantNone {
		t.Fatalf("copy membrane = %+v, %v, want purpose1 none", cm, err)
	}
	if rep, err := c.Erase(subject); err != nil || !rep.Fanout.OK() {
		t.Fatalf("Erase = %+v, %v", rep, err)
	}
	if _, err := tn.DBFS().GetRecord(tn.DEDToken(), copyPDID); err == nil {
		t.Fatalf("copy %s of the erased derived record is still readable", copyPDID)
	}
	if got := c.CopyNodes(subject); len(got) != 0 {
		t.Fatalf("CopyNodes after erase = %v, want empty", got)
	}
}

// TestNodeSubjectsSpanAllPartitions: a node holds the subjects of one
// residue of the subject hash, and dbfs must still spread them over all
// four PD partitions, so every partition's journal serves the node. The
// partition a subject landed on is read off the raw PD disk: the blocks
// holding its name (tree entries, membranes) lie in its partition's range.
func TestNodeSubjectsSpanAllPartitions(t *testing.T) {
	const partitions = 4 // core's pdPartitions
	for _, n := range []int{2, 4} {
		opts := nodeOpts()
		opts.PDDiskBlocks, opts.NInodes, opts.JournalBlocks = 2048, 512, 64
		c, err := Boot(Options{Nodes: n, Node: opts, PropagationWindow: time.Minute})
		if err != nil {
			t.Fatalf("Boot: %v", err)
		}
		if err := c.DeclareTypesDSL(userDSL, aliasOpts()); err != nil {
			t.Fatal(err)
		}
		reached := make([]map[uint64]bool, n)
		for i := range reached {
			reached[i] = make(map[uint64]bool)
		}
		for i := 0; i < 16*n; i++ {
			subject := fmt.Sprintf("s%06d", i)
			if _, err := c.Insert("user", subject, dbfs.Record{
				"name": dbfs.S("n"), "pwd": dbfs.S("p"), "year_of_birthdate": dbfs.I(1990),
			}); err != nil {
				t.Fatalf("Insert %s: %v", subject, err)
			}
			home := c.HomeOf(subject)
			blocks := c.Node(home).ResidueScan([]byte(subject))
			if len(blocks) == 0 {
				t.Fatalf("%s: name not found on its home node %d", subject, home)
			}
			for _, b := range blocks {
				reached[home][b/(opts.PDDiskBlocks/partitions)] = true
			}
		}
		for node, parts := range reached {
			if len(parts) != partitions {
				t.Errorf("%d-node fleet: node %d's subjects reach partitions %v, want all %d", n, node, parts, partitions)
			}
		}
	}
}
