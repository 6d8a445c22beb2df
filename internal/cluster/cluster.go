// Package cluster routes data subjects across a small fleet of in-process
// rgpdOS nodes — the paper's "GDPR-compliant-by-construction" machine,
// scaled out without weakening the per-machine guarantees. Each node is a
// full core.System (purpose kernels, DBFS, membranes, crypto-shredding,
// audit); the cluster is a thin router on top, and every GDPR property is
// still enforced by the node that holds the data.
//
// Placement is by subject hash: a subject's home node is
// dbfs.SubjectHash(subject) mod the node count — the raw FNV-1a hash,
// never dbfs.ShardOf, whose `hash % dbfs.DefaultShards` value keeps only
// six bits and would load a fleet whose size does not divide 64 unevenly.
// All of a subject's records are inserted on the home node.
//
// Cross-node copies are the hard part — the paper's obligation is that
// erasure and consent reach every copy. MaterializeCopy places a record on
// a non-home node only after naming that node in the subject's durable
// node set on the home node's NPD filesystem (see ledger.go): the set may
// name a node that holds nothing, but a node holding a copy is never
// missing from it. Consent mutations and Erase apply on the home node
// first, then fan out to exactly the nodes the set names. There one
// routine, syncNode, lists the subject's records — every one a copy, or a
// node-local copy of a copy — and makes each follow its family on the
// home node, the home records whose membrane.Root is the copy's CopyOf
// (family erased ⇒ the copy is crypto-erased; once the node holds no
// unerased record it leaves the set). Per-node failures are
// reported, not hidden, and enqueued for retry: the Propagator
// (propagator.go) retries every pending sync at least once per
// PropagationWindow, so a mutation reaches every reachable copy within one
// window of the failure clearing. New and SweepExpired run the same
// routine over every named node.
//
// Fan-out reads merge deterministically: AccessBatch groups subjects by
// home node, runs the node batches concurrently (lowest-node-index error
// wins, via the same ded.ForEachIndexed contract the single-node engine
// uses), then folds each subject's remote-copy reports into the home
// report with stable sorts. SweepExpired sweeps every node and returns the
// union, sorted. PDIDs are node-scoped (each node runs its own per-type
// sequence), so merged pdid lists are multisets — (pdid, node) is the
// globally unique name, and copies carry CopyOf for provenance.
//
// Lock order: per-subject op lock → node internals (rights/DBFS/PS), and
// per-subject op lock → ledger.mu → NPD plainfs. The ledger and
// pending-queue mutexes are leaf locks; nothing below them calls back up.
package cluster

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dbfs"
	"repro/internal/ded"
	"repro/internal/membrane"
	"repro/internal/rights"
	"repro/internal/simclock"
	"repro/internal/typedsl"
)

// MaxNodes bounds the fleet: the router is built for a handful of
// co-located nodes, not a datacenter.
const MaxNodes = 8

// DefaultPropagationWindow is the fallback retry cadence: a failed
// cross-node sync is retried at least once per window.
const DefaultPropagationWindow = time.Minute

// Sentinel errors.
var (
	// ErrBadNode reports a node index outside the fleet.
	ErrBadNode = errors.New("cluster: no such node")
	// ErrHomeNode reports a copy requested on the subject's own home node.
	ErrHomeNode = errors.New("cluster: target is the subject's home node")
	// ErrInjected is the fault-injection error (FailNode) used by tests
	// (among them TestSC8Golden) to exercise the partial-failure path.
	ErrInjected = errors.New("cluster: injected fault")
)

// Options configures Boot.
type Options struct {
	// Nodes is the fleet size, 1..MaxNodes (default 2). 1 is the degenerate
	// single-node cluster, kept legal so benchmarks can baseline against it.
	Nodes int
	// Node is the per-node core template. Its Clock is shared across the
	// fleet (one timebase; a single Sim at simclock.Epoch is installed when
	// nil) and its NodeName is overridden with "n<index>".
	Node core.Options
	// PropagationWindow bounds cross-node retry: a failed copy sync is
	// retried at least once per window. Default DefaultPropagationWindow.
	PropagationWindow time.Duration
}

// pendKey names one pending cross-node sync: the subject's copies on one
// node need their membranes re-synced from the home node.
type pendKey struct {
	subject string
	node    int
}

// Cluster is the router. Safe for concurrent use.
type Cluster struct {
	nodes  []*core.System
	clock  simclock.Clock
	window time.Duration
	ledger *ledger

	// subjMu serializes subject-level mutations (insert-copy vs erase vs
	// consent vs sync) per subject, so a copy can never materialize from an
	// origin that a concurrent Erase has already fanned out past.
	subjMu sync.Map // subject -> *sync.Mutex

	mu      sync.Mutex
	pending map[pendKey]time.Time // -> retry deadline
	faults  map[int]int           // node -> remaining injected failures

	// prop is the cluster's one propagator; enqueue kicks its loop.
	prop *Propagator
}

// Boot builds a fleet of opts.Nodes fresh nodes on one shared clock and
// returns the router over them.
func Boot(opts Options) (*Cluster, error) {
	n := opts.Nodes
	if n == 0 {
		n = 2
	}
	if n < 1 || n > MaxNodes {
		return nil, fmt.Errorf("cluster: %d nodes out of range 1..%d", opts.Nodes, MaxNodes)
	}
	tmpl := opts.Node
	if tmpl.Clock == nil {
		tmpl.Clock = simclock.NewSim(simclock.Epoch)
	}
	nodes := make([]*core.System, n)
	for i := range nodes {
		o := tmpl
		o.NodeName = fmt.Sprintf("n%d", i)
		sys, err := core.Boot(o)
		if err != nil {
			return nil, fmt.Errorf("cluster: boot node %d: %w", i, err)
		}
		nodes[i] = sys
	}
	return New(nodes, opts.PropagationWindow)
}

// New builds a router over existing nodes, reloading the durable copy
// ledger from their NPD filesystems and syncing every node it names, so a
// propagation the previous router never finished completes here (a sync
// that fails is queued for retry): restarting the router never strands an
// erasure. The nodes must share one clock; node 0's is used.
func New(nodes []*core.System, window time.Duration) (*Cluster, error) {
	if len(nodes) < 1 || len(nodes) > MaxNodes {
		return nil, fmt.Errorf("cluster: %d nodes out of range 1..%d", len(nodes), MaxNodes)
	}
	if window <= 0 {
		window = DefaultPropagationWindow
	}
	led, err := loadLedger(nodes)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		nodes:   nodes,
		clock:   nodes[0].Clock(),
		window:  window,
		ledger:  led,
		pending: make(map[pendKey]time.Time),
		faults:  make(map[int]int),
	}
	c.prop = newPropagator(c)
	c.syncLedger()
	return c, nil
}

// Nodes reports the fleet size.
func (c *Cluster) Nodes() int { return len(c.nodes) }

// Node returns one node's core.System for direct (node-local) access.
func (c *Cluster) Node(i int) *core.System { return c.nodes[i] }

// Clock is the fleet's shared timebase.
func (c *Cluster) Clock() simclock.Clock { return c.clock }

// HomeOf places a subject: the raw FNV-1a subject hash mod the node count.
// A pure function of (subject, fleet size), so every router over the same
// fleet agrees, and a restart never re-homes a subject.
func (c *Cluster) HomeOf(subjectID string) int { return homeOf(subjectID, len(c.nodes)) }

// lockSubject serializes subject-level mutations. Returns the unlock.
func (c *Cluster) lockSubject(subject string) func() {
	v, _ := c.subjMu.LoadOrStore(subject, &sync.Mutex{})
	m := v.(*sync.Mutex)
	m.Lock()
	return m.Unlock
}

// CreateType declares a PD type on every node (placement needs the schema
// everywhere a record or copy may land).
func (c *Cluster) CreateType(sch *dbfs.Schema) error {
	for i, n := range c.nodes {
		if err := n.CreateType(sch); err != nil {
			return fmt.Errorf("cluster: node %d: %w", i, err)
		}
	}
	return nil
}

// DeclareTypesDSL compiles and declares a type DSL source on every node.
func (c *Cluster) DeclareTypesDSL(src string, copts typedsl.CompileOptions) error {
	for i, n := range c.nodes {
		if err := n.DeclareTypesDSL(src, copts); err != nil {
			return fmt.Errorf("cluster: node %d: %w", i, err)
		}
	}
	return nil
}

// Insert stores a record on the subject's home node and returns its pdid
// (node-scoped; pair it with HomeOf for the global name).
func (c *Cluster) Insert(typeName, subjectID string, rec dbfs.Record) (string, error) {
	n := c.nodes[c.HomeOf(subjectID)]
	return n.DBFS().Insert(n.DEDToken(), typeName, subjectID, rec, nil)
}

// GetRecord reads a record by pdid on its subject's home node. Copies live
// under their own node-scoped pdids; read them via Node(i) directly.
func (c *Cluster) GetRecord(pdid string) (dbfs.Record, error) {
	_, subject, _, err := dbfs.SplitPDID(pdid)
	if err != nil {
		return nil, err
	}
	n := c.nodes[c.HomeOf(subject)]
	return n.DBFS().GetRecord(n.DEDToken(), pdid)
}

// MaterializeCopy places a copy of the record pdid (which lives on its
// subject's home node) onto node target, and returns the copy's pdid on
// that node. target joins the subject's durable node set BEFORE the copy
// is inserted — a crash or a failed insert can leave the node named with
// no copy (its next sync drops it), never a copy on an unnamed node. The
// copy's membrane is CloneForCopy of the origin's: same consents and TTL,
// CopyOf naming the origin's family root.
func (c *Cluster) MaterializeCopy(pdid string, target int) (string, error) {
	typeName, subject, _, err := dbfs.SplitPDID(pdid)
	if err != nil {
		return "", err
	}
	if target < 0 || target >= len(c.nodes) {
		return "", fmt.Errorf("%w: %d", ErrBadNode, target)
	}
	home := c.HomeOf(subject)
	if target == home {
		return "", fmt.Errorf("%w: %s on node %d", ErrHomeNode, subject, home)
	}
	unlock := c.lockSubject(subject)
	defer unlock()

	hn := c.nodes[home]
	m, err := hn.DBFS().GetMembrane(hn.DEDToken(), pdid)
	if err != nil {
		return "", err
	}
	if m.Erased {
		return "", fmt.Errorf("cluster: copy of erased %s: %w", pdid, membrane.ErrErased)
	}
	rec, err := hn.DBFS().GetRecord(hn.DEDToken(), pdid)
	if err != nil {
		return "", err
	}
	if err := c.ledger.add(subject, home, target); err != nil {
		return "", err
	}
	tn := c.nodes[target]
	// Insert overrides the clone's identity fields with the pdid it
	// assigns; CopyOf and the cloned consents/TTL/CreatedAt survive.
	return tn.DBFS().Insert(tn.DEDToken(), typeName, subject, rec, m.CloneForCopy(""))
}

// NodeError is one node's failure inside a fan-out.
type NodeError struct {
	Node int
	Name string
	Err  error
}

func (e NodeError) Error() string {
	return fmt.Sprintf("node %d (%s): %v", e.Node, e.Name, e.Err)
}

func (e NodeError) Unwrap() error { return e.Err }

// FanoutReport is the per-node partial-failure report of one cross-node
// mutation. The home-node op had already succeeded when the fan-out ran;
// Failed lists the remote nodes whose copy sync failed, each of which is
// queued for retry within one PropagationWindow.
type FanoutReport struct {
	Subject string
	// Nodes lists the remote nodes the subject's node set named, ascending.
	Nodes []int
	// Failed lists the per-node failures, ascending by node index. Every
	// failed node is also queued for Propagator retry.
	Failed []NodeError
}

// OK reports a fully-propagated fan-out.
func (r *FanoutReport) OK() bool { return len(r.Failed) == 0 }

// takeFault consumes one injected fault for node, if armed.
func (c *Cluster) takeFault(node int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.faults[node] > 0 {
		c.faults[node]--
		return true
	}
	return false
}

// FailNode arms fault injection: the next n cross-node syncs touching node
// fail with ErrInjected. Test and benchmark hook for the partial-failure
// path; it never affects node-local operation.
func (c *Cluster) FailNode(node, n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n <= 0 {
		delete(c.faults, node)
		return
	}
	c.faults[node] = n
}

// syncNode makes the subject's records on node follow their families on
// the home node. Insert writes only the home node, so every record of the
// subject elsewhere is a copy (or a node-local copy of one), and its
// membrane.Root names a family that began on home. The family is read from
// the home node's listing, grouped by membrane.Root — the rule
// rights.EraseRecord uses — so a derived record or home copy that outlives
// its swept root still governs the copies made from it. Per copy: family
// erased on home ⇒ crypto-erase the copy's family on node (through the
// node's rights engine, so the erasure is audited); family live ⇒ take its
// consents, restriction and version, writing only when one differs; no
// family member left on home ⇒ leave the copy to its own TTL. A node left
// with no unerased record of the subject is dropped from the subject's
// set. Caller holds the subject lock.
func (c *Cluster) syncNode(subject string, home, node int) error {
	if c.takeFault(node) {
		return ErrInjected
	}
	rn := c.nodes[node]
	pdids, ms, err := subjectMembranes(rn, subject)
	if err != nil {
		return err
	}
	if !slices.ContainsFunc(ms, func(m *membrane.Membrane) bool { return !m.Erased }) {
		return c.ledger.drop(subject, home, node)
	}
	_, hms, err := subjectMembranes(c.nodes[home], subject)
	if err != nil {
		return err
	}
	src := familySources(hms)
	store, tok := rn.DBFS(), rn.DEDToken()
	erased := make(map[string]bool) // roots whose family was erased here
	held := false
	for i, cm := range ms {
		root := cm.Root()
		if cm.Erased || erased[root] {
			continue
		}
		om := src[root]
		switch {
		case om == nil:
			held = true // no family member left on home: the copy's own TTL governs
		case om.Erased:
			_, err := rn.Rights().EraseRecord(pdids[i])
			if errors.Is(err, dbfs.ErrNoRecord) {
				continue // swept since the listing; a later member re-runs the family erase
			}
			if err != nil {
				return err
			}
			erased[root] = true
		default:
			held = true
			if cm.Restricted == om.Restricted && cm.Version == om.Version && maps.Equal(cm.Consents, om.Consents) {
				continue
			}
			_, err := store.MutateMembrane(tok, pdids[i], func(m *membrane.Membrane) error {
				m.Consents = maps.Clone(om.Consents)
				m.Restricted = om.Restricted
				m.Version = om.Version
				return nil
			})
			// ErrNoRecord: swept since the listing; ErrErased: a locally
			// erased copy stays erased.
			if err != nil && !errors.Is(err, dbfs.ErrNoRecord) && !errors.Is(err, membrane.ErrErased) {
				return err
			}
		}
	}
	if held {
		return nil
	}
	return c.ledger.drop(subject, home, node)
}

// subjectMembranes lists a node's records of subject, erased ones included
// (an erased family on the home node is what erases its copies), sorted,
// with their membranes. The node's retention sweep runs outside the
// subject lock and may delete a listed record before its membrane is read;
// the listing is then taken once more (a second race fails the sync, which
// is retried one window later).
func subjectMembranes(n *core.System, subject string) ([]string, []*membrane.Membrane, error) {
	store, tok := n.DBFS(), n.DEDToken()
	for try := 0; ; try++ {
		live, erased, err := store.ListErased(tok, subject)
		if err != nil {
			return nil, nil, err
		}
		pdids := append(live, erased...)
		slices.Sort(pdids)
		ms, err := store.GetMembranes(tok, pdids)
		if errors.Is(err, dbfs.ErrNoRecord) && try == 0 {
			continue
		}
		return pdids, ms, err
	}
}

// familySources maps each family root among the home node's membranes to
// the membrane its copies follow: the root record while it exists, else
// the family's first live member, else (every member erased) its first
// member. Erasure through the rights engine is family-wide, so a family is
// erased on home exactly when no member of it is live.
func familySources(hms []*membrane.Membrane) map[string]*membrane.Membrane {
	src := make(map[string]*membrane.Membrane)
	for _, m := range hms {
		root := m.Root()
		cur, ok := src[root]
		if !ok || m.PDID == root || (cur.PDID != root && cur.Erased && !m.Erased) {
			src[root] = m
		}
	}
	return src
}

// fanout syncs every node in the subject's set, in ascending node order,
// reporting per-node failures and queueing each for retry. Caller holds
// the subject lock.
func (c *Cluster) fanout(subject string, home int) *FanoutReport {
	rep := &FanoutReport{Subject: subject}
	for _, node := range c.ledger.nodesFor(subject) {
		rep.Nodes = append(rep.Nodes, node)
		if err := c.syncNode(subject, home, node); err != nil {
			rep.Failed = append(rep.Failed, NodeError{Node: node, Name: c.nodes[node].NodeName(), Err: err})
			c.enqueue(subject, node)
		}
	}
	return rep
}

// syncLedger fans out every subject the ledger names, each under its
// subject lock: New's restart reconcile and SweepExpired's prune.
func (c *Cluster) syncLedger() {
	for _, subject := range c.ledger.subjects() {
		unlock := c.lockSubject(subject)
		c.fanout(subject, c.HomeOf(subject))
		unlock()
	}
}

// enqueue schedules a (subject, node) sync for Propagator retry within one
// PropagationWindow, and wakes a running propagator.
func (c *Cluster) enqueue(subject string, node int) {
	c.mu.Lock()
	k := pendKey{subject: subject, node: node}
	if _, ok := c.pending[k]; !ok {
		c.pending[k] = c.clock.Now().Add(c.window)
	}
	c.mu.Unlock()
	c.prop.loop.Kick()
}

// PendingSyncs reports how many (subject, node) syncs await retry.
func (c *Cluster) PendingSyncs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// SetConsent records a consent grant for every record of the subject on
// its home node, then propagates it to every copy on the nodes the
// subject's set names. A home failure returns (nil, err) and touches
// nothing else; remote failures are reported in the FanoutReport (and
// retried), not returned as the error.
func (c *Cluster) SetConsent(subjectID, purposeName string, g membrane.Grant) (*FanoutReport, error) {
	unlock := c.lockSubject(subjectID)
	defer unlock()
	home := c.HomeOf(subjectID)
	if err := c.nodes[home].Rights().SetConsent(subjectID, purposeName, g); err != nil {
		return nil, err
	}
	return c.fanout(subjectID, home), nil
}

// WithdrawConsent withdraws a purpose's consent subject-wide on the home
// node and propagates the withdrawal to every copy on the nodes the
// subject's set names. Error semantics match SetConsent.
func (c *Cluster) WithdrawConsent(subjectID, purposeName string) (*FanoutReport, error) {
	unlock := c.lockSubject(subjectID)
	defer unlock()
	home := c.HomeOf(subjectID)
	if err := c.nodes[home].Rights().WithdrawConsent(subjectID, purposeName); err != nil {
		return nil, err
	}
	return c.fanout(subjectID, home), nil
}

// EraseReport is the cluster right-to-be-forgotten answer: the home node's
// crypto-erasure plus the cross-node fan-out outcome.
type EraseReport struct {
	SubjectID string
	// Home is the subject's home node; Erased lists the pdids shredded
	// there (the single-node report, sorted).
	Home   int
	Erased []string
	// Fanout reports the per-node propagation to the copy-holding nodes.
	Fanout FanoutReport
}

// Erase executes the right to be forgotten cluster-wide: crypto-shred on
// the home node, then erase every copy on the nodes the subject's set
// names. A home failure returns (nil, err); per-copy-node failures land
// in Fanout.Failed, each queued so the Propagator retries it within one
// PropagationWindow — the paper's erasure obligation holds for every copy
// within one window of the node being reachable again.
func (c *Cluster) Erase(subjectID string) (*EraseReport, error) {
	unlock := c.lockSubject(subjectID)
	defer unlock()
	home := c.HomeOf(subjectID)
	hr, err := c.nodes[home].Rights().Erase(subjectID)
	if err != nil {
		return nil, err
	}
	rep := &EraseReport{SubjectID: subjectID, Home: home, Erased: hr.Erased}
	rep.Fanout = *c.fanout(subjectID, home)
	return rep, nil
}

// AccessBatch builds Art. 15 access reports for many subjects: the
// subjects are grouped by home node, each node's batch runs concurrently
// through its own rights engine (lowest-node-index error, the same
// ded.ForEachIndexed merge contract as the single-node engine), and
// each subject's remote copies (on the nodes its set names) are folded
// into its report — data exports appended and stably sorted by pdid
// within each type, processing history merged by time. Reports keep
// request order.
func (c *Cluster) AccessBatch(subjectIDs []string) ([]*rights.AccessReport, error) {
	groups := make(map[int][]int) // home node -> request indices, in order
	for i, s := range subjectIDs {
		h := c.HomeOf(s)
		groups[h] = append(groups[h], i)
	}
	homes := make([]int, 0, len(groups))
	for h := range groups {
		homes = append(homes, h)
	}
	sort.Ints(homes)
	out := make([]*rights.AccessReport, len(subjectIDs))
	err := ded.ForEachIndexed(len(homes), len(homes), func(gi int) error {
		idxs := groups[homes[gi]]
		subs := make([]string, len(idxs))
		for j, i := range idxs {
			subs[j] = subjectIDs[i]
		}
		reps, err := c.nodes[homes[gi]].Rights().AccessBatch(subs)
		if err != nil {
			return err
		}
		for j, i := range idxs {
			out[i] = reps[j]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Remote-copy merge, serial in request order (node order within each
	// subject) so the first error is deterministic.
	for i, subject := range subjectIDs {
		for _, node := range c.ledger.nodesFor(subject) {
			remote, err := c.nodes[node].Rights().Access(subject)
			if err != nil {
				return nil, fmt.Errorf("cluster: access %s on node %d: %w", subject, node, err)
			}
			mergeAccess(out[i], remote)
		}
		finishAccess(out[i])
	}
	return out, nil
}

// mergeAccess folds a remote node's per-subject report into the home one.
func mergeAccess(home, remote *rights.AccessReport) {
	if len(remote.Data) > 0 && home.Data == nil {
		home.Data = make(map[string][]rights.RecordExport)
	}
	for t, exps := range remote.Data {
		home.Data[t] = append(home.Data[t], exps...)
	}
	home.Processings = append(home.Processings, remote.Processings...)
	if len(remote.PerPD) > 0 && home.PerPD == nil {
		home.PerPD = make(map[string][]rights.ProcessingEntry)
	}
	for pd, es := range remote.PerPD {
		home.PerPD[pd] = append(home.PerPD[pd], es...)
	}
}

// finishAccess restores the single-node report ordering invariants after
// merging: exports sorted by pdid within each type, history by time. All
// sorts are stable, so equal keys keep home-then-ascending-node order.
func finishAccess(rep *rights.AccessReport) {
	for t := range rep.Data {
		exps := rep.Data[t]
		sort.SliceStable(exps, func(i, j int) bool { return exps[i].PDID < exps[j].PDID })
	}
	sort.SliceStable(rep.Processings, func(i, j int) bool {
		return rep.Processings[i].Time.Before(rep.Processings[j].Time)
	})
	for pd := range rep.PerPD {
		es := rep.PerPD[pd]
		sort.SliceStable(es, func(i, j int) bool { return es[i].Time.Before(es[j].Time) })
	}
}

// SweepExpired runs the retention sweep on every node concurrently and
// returns the union of deleted pdids, sorted (a multiset: pdids are
// node-scoped). Error is the lowest-node-index failure, matching the
// single-node contract. Every node the ledger names is then synced, which
// drops the nodes whose copies the sweep deleted.
func (c *Cluster) SweepExpired() ([]string, error) {
	per := make([][]string, len(c.nodes))
	err := ded.ForEachIndexed(len(c.nodes), len(c.nodes), func(i int) error {
		d, err := c.nodes[i].Rights().SweepExpired()
		per[i] = d
		return err
	})
	if err != nil {
		return nil, err
	}
	var all []string
	for _, d := range per {
		all = append(all, d...)
	}
	sort.Strings(all)
	c.syncLedger()
	return all, nil
}

// CopyNodes reports the non-home nodes that may hold the subject's copies,
// ascending.
func (c *Cluster) CopyNodes(subject string) []int { return c.ledger.nodesFor(subject) }

// NodeStatus is one node's row in Status.
type NodeStatus struct {
	Index int    `json:"index"`
	Name  string `json:"name"`
	// Subjects counts subjects with records on the node (homes and copies).
	Subjects int `json:"subjects"`
	// CopiesHeld counts subjects whose node set names this node;
	// CopiesTracked counts the (subject, node) pairs this node's ledger
	// files name as home.
	CopiesHeld    int `json:"copies_held"`
	CopiesTracked int `json:"copies_tracked"`
	// PendingSyncs counts queued retries targeting this node.
	PendingSyncs int `json:"pending_syncs"`
}

// Status reports the fleet's placement and ledger shape, one row per node.
func (c *Cluster) Status() ([]NodeStatus, error) {
	out := make([]NodeStatus, len(c.nodes))
	for i, n := range c.nodes {
		subs, err := n.DBFS().Subjects(n.DEDToken())
		if err != nil {
			return nil, fmt.Errorf("cluster: status node %d: %w", i, err)
		}
		out[i] = NodeStatus{Index: i, Name: n.NodeName(), Subjects: len(subs)}
	}
	for _, s := range c.ledger.subjects() {
		for _, node := range c.ledger.nodesFor(s) {
			out[node].CopiesHeld++
			out[c.HomeOf(s)].CopiesTracked++
		}
	}
	c.mu.Lock()
	for k := range c.pending {
		out[k.node].PendingSyncs++
	}
	c.mu.Unlock()
	return out, nil
}
