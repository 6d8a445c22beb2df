// Package cluster routes data subjects across a small fleet of in-process
// rgpdOS nodes — the paper's "GDPR-compliant-by-construction" machine,
// scaled out without weakening the per-machine guarantees. Each node is a
// full core.System (purpose kernels, DBFS, membranes, crypto-shredding,
// audit); the cluster is a thin router on top, and every GDPR property is
// still enforced by the node that holds the data.
//
// Placement is by geometry-independent subject hash: a subject's home node
// is dbfs.SubjectHash(subject) mod the node count — the raw FNV-1a hash,
// never dbfs.ShardOf, whose `hash % shards` value discards all but a few
// bits and would couple cross-node placement to each store's mount-time
// shard count. All of a subject's records are inserted on the home node;
// remounting a node with a different shard geometry never re-homes anyone.
//
// Cross-node copies are the hard part — the paper's obligation is that
// erasure and consent reach every copy. MaterializeCopy places a record on
// a non-home node only after writing a durable ledger entry (subject,
// pdid, node) on the home node's NPD filesystem (see ledger.go): the
// ledger may name a copy that never appeared, but a live copy is never
// unknown to the ledger. Consent mutations and Erase apply on the home
// node first, then fan out to exactly the nodes the ledger names, syncing
// each copy's membrane from its origin (erased origin ⇒ the copy is
// crypto-erased and the entry dropped). Per-node failures are reported,
// not hidden, and enqueued for retry: the Propagator (propagator.go)
// retries every pending sync at least once per PropagationWindow, so a
// mutation reaches every reachable copy within one window of the failure
// clearing.
//
// Fan-out reads merge deterministically: AccessBatch groups subjects by
// home node, runs the node batches concurrently (lowest-node-index error
// wins, via the same rights.ForEachIndexed contract the single-node engine
// uses), then folds each subject's remote-copy reports into the home
// report with stable sorts. SweepExpired sweeps every node and returns the
// union, sorted. PDIDs are node-scoped (each node runs its own per-type
// sequence), so merged pdid lists are multisets — the ledger triple
// (subject, pdid, node) is the globally unique name, and copies carry
// CopyOf for provenance.
//
// Lock order: per-subject op lock → node internals (rights/DBFS/PS) →
// ledger.mu → NPD plainfs. The ledger and pending-queue mutexes are leaf
// locks; nothing below them calls back up.
package cluster

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dbfs"
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
	// ErrInjected is the fault-injection error (FailNode) used by tests and
	// the SC8 benchmark to exercise the partial-failure path.
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
// ledger from their NPD filesystems and reconciling it: any entry whose
// origin is already erased (a propagation the previous router never
// finished) is re-queued, so restarting the router never strands an
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
	c.reconcile()
	return c, nil
}

// reconcile re-queues syncs the durable state proves unfinished: a ledger
// entry whose origin membrane is erased, or whose origin consents differ
// from the copy's, means a previous router died mid-fanout.
func (c *Cluster) reconcile() {
	deadline := c.clock.Now().Add(c.window)
	for _, subject := range c.ledger.subjects() {
		home := c.HomeOf(subject)
		for _, e := range c.ledger.entriesFor(subject) {
			if c.needsSync(e, home) {
				c.mu.Lock()
				k := pendKey{subject: subject, node: e.Node}
				if _, ok := c.pending[k]; !ok {
					c.pending[k] = deadline
				}
				c.mu.Unlock()
			}
		}
	}
}

// needsSync reports whether an entry's copy visibly lags its origin.
func (c *Cluster) needsSync(e Entry, home int) bool {
	hn := c.nodes[home]
	om, err := hn.DBFS().GetMembrane(hn.DEDToken(), e.Origin)
	if err != nil {
		return false // origin physically gone: the copy's own TTL governs
	}
	if e.PDID == "" {
		return om.Erased // crashed intent: only erasure must chase it
	}
	rn := c.nodes[e.Node]
	cm, err := rn.DBFS().GetMembrane(rn.DEDToken(), e.PDID)
	if err != nil {
		return false // copy gone; the sweep prune will drop the entry
	}
	if om.Erased {
		return !cm.Erased
	}
	return cm.Restricted != om.Restricted || !consentsEqual(cm.Consents, om.Consents)
}

func consentsEqual(a, b map[string]membrane.Grant) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// Nodes reports the fleet size.
func (c *Cluster) Nodes() int { return len(c.nodes) }

// Node returns one node's core.System for direct (node-local) access.
func (c *Cluster) Node(i int) *core.System { return c.nodes[i] }

// Clock is the fleet's shared timebase.
func (c *Cluster) Clock() simclock.Clock { return c.clock }

// PropagationWindow reports the configured retry bound.
func (c *Cluster) PropagationWindow() time.Duration { return c.window }

// HomeOf places a subject: the raw FNV-1a subject hash mod the node count.
// A pure function of (subject, fleet size) — independent of any store's
// shard geometry, so a node remount with different Options.Shards never
// re-homes a subject.
func (c *Cluster) HomeOf(subjectID string) int {
	return int(dbfs.SubjectHash(subjectID) % uint32(len(c.nodes)))
}

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
// that node. The durable ledger entry is written BEFORE the copy is
// inserted — a crash can leave an entry without a copy (erasure tolerates
// that, subject-wide), never a copy without an entry. The copy's membrane
// is CloneForCopy of the origin's: same consents and TTL, CopyOf naming
// the origin.
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
	intent := Entry{Subject: subject, Node: target, Origin: pdid, Home: home}
	if err := c.ledger.record(intent); err != nil {
		return "", err
	}
	tn := c.nodes[target]
	// Insert overrides the clone's identity fields with the pdid it
	// assigns; CopyOf and the cloned consents/TTL/CreatedAt survive.
	copyPDID, err := tn.DBFS().Insert(tn.DEDToken(), typeName, subject, rec, m.CloneForCopy(""))
	if err != nil {
		_ = c.ledger.remove(intent)
		return "", err
	}
	if err := c.ledger.setPDID(subject, home, target, pdid, copyPDID); err != nil {
		return "", err
	}
	return copyPDID, nil
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
	// Nodes lists the remote nodes the ledger named, ascending.
	Nodes []int
	// Failed lists the per-node failures, ascending by node index. Every
	// failed node is also queued for Propagator retry.
	Failed []NodeError
}

// Err returns the lowest-node-index failure, or nil — the cluster's analog
// of the single-node engine's lowest-index-error merge contract.
func (r *FanoutReport) Err() error {
	if len(r.Failed) == 0 {
		return nil
	}
	return r.Failed[0]
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

// syncNode reconciles every ledger-named copy of subject on node with its
// origin on the home node: erased origin ⇒ crypto-erase the copy (through
// the node's rights engine, so the erasure is audited) and drop the entry;
// live origin ⇒ overwrite the copy's consents/restriction with the
// origin's. Caller holds the subject lock.
func (c *Cluster) syncNode(subject string, home, node int) error {
	if c.takeFault(node) {
		return ErrInjected
	}
	hn, rn := c.nodes[home], c.nodes[node]
	for _, e := range c.ledger.forNode(subject, node) {
		om, err := hn.DBFS().GetMembrane(hn.DEDToken(), e.Origin)
		if err != nil {
			continue // origin physically gone: the copy's own TTL governs
		}
		if om.Erased {
			if e.PDID == "" {
				// Crashed materialize intent: no copy pdid known, so erase
				// the subject wholesale on that node (idempotent, and every
				// record of the subject there is a copy by construction).
				if _, err := rn.Rights().Erase(subject); err != nil {
					return err
				}
				return c.ledger.removeNode(subject, home, node)
			}
			if _, err := rn.Rights().EraseRecord(e.PDID); err != nil {
				return err
			}
			if err := c.ledger.remove(e); err != nil {
				return err
			}
			continue
		}
		if e.PDID == "" {
			continue // intent without a copy and a live origin: nothing to sync
		}
		_, err = rn.DBFS().MutateMembrane(rn.DEDToken(), e.PDID, func(cm *membrane.Membrane) error {
			if cm.Erased {
				return nil // a locally-erased copy stays erased
			}
			cm.Consents = make(map[string]membrane.Grant, len(om.Consents))
			for k, v := range om.Consents {
				cm.Consents[k] = v
			}
			cm.Restricted = om.Restricted
			cm.Version = om.Version
			return nil
		})
		if err != nil {
			if errors.Is(err, dbfs.ErrNoRecord) {
				continue // copy already swept; the prune will drop the entry
			}
			return err
		}
	}
	return nil
}

// fanout syncs every ledger-named node for the subject, in ascending node
// order, reporting per-node failures and queueing each for retry. Caller
// holds the subject lock.
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
// its home node, then propagates it to every ledger-named copy. A home
// failure returns (nil, err) and touches nothing else; remote failures are
// reported in the FanoutReport (and retried), not returned as the error.
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
// node and propagates the withdrawal to every ledger-named copy. Error
// semantics match SetConsent.
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
	// Fanout reports the per-node propagation to ledger-named copies.
	Fanout FanoutReport
}

// Erase executes the right to be forgotten cluster-wide: crypto-shred on
// the home node, then erase every ledger-named copy. A home failure
// returns (nil, err); per-copy-node failures land in Fanout.Failed, each
// queued so the Propagator retries it within one PropagationWindow — the
// paper's erasure obligation holds for every copy within one window of the
// node being reachable again.
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
// rights.ForEachIndexed merge contract as the single-node engine), and
// each subject's ledger-named remote copies are folded into its report —
// data exports appended and stably sorted by pdid within each type,
// processing history merged by time. Reports keep request order.
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
	err := rights.ForEachIndexed(len(homes), len(homes), func(gi int) error {
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
// single-node contract. Ledger entries whose copies were swept are pruned.
func (c *Cluster) SweepExpired() ([]string, error) {
	per := make([][]string, len(c.nodes))
	err := rights.ForEachIndexed(len(c.nodes), len(c.nodes), func(i int) error {
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
	c.pruneLedger()
	return all, nil
}

// pruneLedger drops entries whose copy no longer exists on its node (the
// record was physically deleted, e.g. by a TTL sweep). Intent entries
// (empty pdid) are kept — only erasure may resolve those.
func (c *Cluster) pruneLedger() {
	for _, e := range c.ledger.all() {
		if e.PDID == "" {
			continue
		}
		rn := c.nodes[e.Node]
		if _, err := rn.DBFS().GetMembrane(rn.DEDToken(), e.PDID); errors.Is(err, dbfs.ErrNoRecord) {
			_ = c.ledger.remove(e)
		}
	}
}

// LedgerEntries snapshots the whole copy ledger, sorted by subject then
// (node, origin, pdid).
func (c *Cluster) LedgerEntries() []Entry { return c.ledger.all() }

// LedgerFor snapshots one subject's ledger entries.
func (c *Cluster) LedgerFor(subject string) []Entry { return c.ledger.entriesFor(subject) }

// NodeStatus is one node's row in Status.
type NodeStatus struct {
	Index int    `json:"index"`
	Name  string `json:"name"`
	// Subjects counts subjects with records on the node (homes and copies).
	Subjects int `json:"subjects"`
	// CopiesHeld counts ledger entries naming this node as copy holder;
	// CopiesTracked counts entries this node tracks as home.
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
	for _, e := range c.ledger.all() {
		out[e.Node].CopiesHeld++
		out[e.Home].CopiesTracked++
	}
	c.mu.Lock()
	for k := range c.pending {
		out[k.node].PendingSyncs++
	}
	c.mu.Unlock()
	return out, nil
}
