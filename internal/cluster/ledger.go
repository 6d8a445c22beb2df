// The durable cross-node copy ledger. For each subject it keeps only what
// a node cannot tell the router: the set of non-home nodes that may hold
// the subject's copies. The copies themselves are found on their node (a
// record of the subject on a non-home node is a copy, and its CopyOf names
// its family root on the home node), so the ledger names no record. Each
// set is one byte, a node bitmask (MaxNodes is 8), stored as
// /cluster/ledger/<hex subject> on the SUBJECT'S HOME NODE's NPD
// filesystem. MaterializeCopy adds the target BEFORE the copy is inserted,
// and syncNode drops a node once it holds no unerased record of the
// subject: the ledger may over-name nodes, never under-name them. A router
// rebuilt over the same nodes (New) reloads every set and syncs each named
// node, which finishes any propagation the old router left undone.
package cluster

import (
	"encoding/hex"
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/dbfs"
)

// ledgerDir is the per-node NPD directory holding the ledger files.
const ledgerDir = "/cluster/ledger"

// ledger is the in-memory index over the per-subject files. The mutex is a
// leaf lock below the per-subject op locks: ledger methods call into
// plainfs (which has its own inode locking) but never back into the
// cluster or a node's rights/DBFS layer.
type ledger struct {
	nodes []*core.System

	mu   sync.Mutex
	sets map[string]uint8 // subject -> bit i set: node i may hold copies
}

// homeOf places a subject on a fleet of n nodes (Cluster.HomeOf).
func homeOf(subject string, n int) int {
	return int(dbfs.SubjectHash(subject) % uint32(n))
}

// subjectFile maps a subject ID to its ledger file path. Subject IDs are
// hex-encoded: plainfs treats "/" as a separator and subject IDs are
// operator-chosen strings.
func subjectFile(subject string) string {
	return ledgerDir + "/" + hex.EncodeToString([]byte(subject))
}

// loadLedger rebuilds the index from every node's NPD ledger directory. A
// file that is not one byte, names a node outside the fleet or the
// subject's home, has a non-hex name or sits on another node than the
// subject's home fails the load.
func loadLedger(nodes []*core.System) (*ledger, error) {
	l := &ledger{nodes: nodes, sets: make(map[string]uint8)}
	for i, n := range nodes {
		fs := n.NPD()
		if !fs.Exists(ledgerDir) {
			continue
		}
		files, err := fs.List(ledgerDir)
		if err != nil {
			return nil, fmt.Errorf("cluster: load ledger on node %d: %w", i, err)
		}
		for _, f := range files {
			if f.IsDir {
				continue
			}
			subject, err := hex.DecodeString(f.Name)
			if err != nil {
				return nil, fmt.Errorf("cluster: ledger file %q on node %d: name is not hex", f.Name, i)
			}
			b, err := fs.ReadFile(ledgerDir + "/" + f.Name)
			if err != nil {
				return nil, fmt.Errorf("cluster: load ledger %s on node %d: %w", f.Name, i, err)
			}
			if len(b) != 1 {
				return nil, fmt.Errorf("cluster: ledger %s on node %d: %d bytes, want 1", f.Name, i, len(b))
			}
			home := homeOf(string(subject), len(nodes))
			if home != i {
				return nil, fmt.Errorf("cluster: ledger %s on node %d, the subject's home is node %d", f.Name, i, home)
			}
			if b[0]>>len(nodes) != 0 || b[0]&(1<<home) != 0 {
				return nil, fmt.Errorf("cluster: ledger %s on node %d: node set %08b names a node outside the fleet or the home node", f.Name, i, b[0])
			}
			if b[0] != 0 {
				l.sets[string(subject)] = b[0]
			}
		}
	}
	return l, nil
}

// setLocked persists the subject's node set on the home node's NPD (the
// file goes when the set empties), then updates the index. Caller holds
// l.mu.
func (l *ledger) setLocked(subject string, home int, set uint8) error {
	fs := l.nodes[home].NPD()
	path := subjectFile(subject)
	if set == 0 {
		if fs.Exists(path) {
			if err := fs.Remove(path); err != nil {
				return fmt.Errorf("cluster: remove ledger %s on node %d: %w", path, home, err)
			}
		}
		delete(l.sets, subject)
		return nil
	}
	if err := fs.MkdirAll(ledgerDir); err != nil {
		return fmt.Errorf("cluster: ledger dir on node %d: %w", home, err)
	}
	if err := fs.WriteFile(path, []byte{set}); err != nil {
		return fmt.Errorf("cluster: write ledger %s on node %d: %w", path, home, err)
	}
	l.sets[subject] = set
	return nil
}

// add names node in the subject's set (durably, before the caller makes a
// copy visible there). A node already named costs no write.
func (l *ledger) add(subject string, home, node int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	set := l.sets[subject]
	if set&(1<<node) != 0 {
		return nil
	}
	return l.setLocked(subject, home, set|1<<node)
}

// drop removes node from the subject's set.
func (l *ledger) drop(subject string, home, node int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	set := l.sets[subject]
	if set&(1<<node) == 0 {
		return nil
	}
	return l.setLocked(subject, home, set&^(1<<node))
}

// nodesFor returns the nodes named in the subject's set, ascending.
func (l *ledger) nodesFor(subject string) []int {
	l.mu.Lock()
	set := l.sets[subject]
	l.mu.Unlock()
	var out []int
	for i := 0; set != 0; i++ {
		if set&1 != 0 {
			out = append(out, i)
		}
		set >>= 1
	}
	return out
}

// subjects returns every subject with a non-empty set, sorted.
func (l *ledger) subjects() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, 0, len(l.sets))
	for s := range l.sets {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}
