// Package plainfs is the traditional file-based filesystem of the
// reproduction: a minimal ext4-like layer (paths, directories, whole files)
// over the journaled inode layer.
//
// In the paper's architecture it plays two roles. First, it is rgpdOS's
// second filesystem — the one holding non-personal data, "implemented with a
// traditional filesystem (e.g. ext4) which works at the file granularity"
// (§2), accessible to any process. Second, it is the substrate under the
// Fig. 2 baseline, where a userspace DB engine with GDPR logic sits on a
// general-purpose OS: because plainfs sees only bytes, its journal and free
// space retain images of records the DB engine believes it deleted — the
// right-to-be-forgotten violation the paper's introduction calls out.
package plainfs

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/blockdev"
	"repro/internal/inode"
	"repro/internal/simclock"
)

// Sentinel errors.
var (
	// ErrNotFound reports a missing path component.
	ErrNotFound = errors.New("plainfs: no such file or directory")
	// ErrExists reports a create over an existing name.
	ErrExists = errors.New("plainfs: file exists")
	// ErrNotDir reports a file used as a directory.
	ErrNotDir = errors.New("plainfs: not a directory")
	// ErrIsDir reports a directory used as a file.
	ErrIsDir = errors.New("plainfs: is a directory")
	// ErrNotEmpty reports removal of a non-empty directory.
	ErrNotEmpty = errors.New("plainfs: directory not empty")
	// ErrBadPath reports a malformed path.
	ErrBadPath = errors.New("plainfs: bad path")
)

// Entry is one directory listing row.
type Entry struct {
	Name  string
	IsDir bool
	Size  uint64
}

// FS is a mounted file-based filesystem. Safe for concurrent use (the inode
// layer serializes).
type FS struct {
	in *inode.FS
}

// Format initializes dev with an empty plainfs and returns it mounted.
func Format(dev blockdev.Device, opts inode.Options) (*FS, error) {
	in, err := inode.Format(dev, opts)
	if err != nil {
		return nil, fmt.Errorf("plainfs: format: %w", err)
	}
	return &FS{in: in}, nil
}

// Mount opens a previously formatted device, replaying the journal.
func Mount(dev blockdev.Device, clock simclock.Clock) (*FS, error) {
	in, err := inode.Mount(dev, clock)
	if err != nil {
		return nil, fmt.Errorf("plainfs: mount: %w", err)
	}
	return &FS{in: in}, nil
}

// splitPath normalizes "/a/b/c" into components. The root is "/" or "".
func splitPath(path string) ([]string, error) {
	if strings.Contains(path, "//") {
		return nil, fmt.Errorf("%w: %q", ErrBadPath, path)
	}
	path = strings.Trim(path, "/")
	if path == "" {
		return nil, nil
	}
	parts := strings.Split(path, "/")
	for _, p := range parts {
		if p == "." || p == ".." {
			return nil, fmt.Errorf("%w: %q", ErrBadPath, path)
		}
	}
	return parts, nil
}

// walk resolves path to an inode, requiring every intermediate component to
// be a tree (directory).
func (f *FS) walk(path string) (inode.Ino, error) {
	parts, err := splitPath(path)
	if err != nil {
		return 0, err
	}
	cur := inode.RootIno
	for i, p := range parts {
		info, err := f.in.Stat(cur)
		if err != nil {
			return 0, err
		}
		if info.Mode != inode.ModeTree {
			return 0, fmt.Errorf("%w: %q", ErrNotDir, strings.Join(parts[:i], "/"))
		}
		next, err := f.in.Lookup(cur, p)
		if err != nil {
			if errors.Is(err, inode.ErrChildNotFound) {
				return 0, fmt.Errorf("%w: %q", ErrNotFound, path)
			}
			return 0, err
		}
		cur = next
	}
	return cur, nil
}

// walkParent resolves the directory containing path and returns it with the
// final component name.
func (f *FS) walkParent(path string) (inode.Ino, string, error) {
	parts, err := splitPath(path)
	if err != nil {
		return 0, "", err
	}
	if len(parts) == 0 {
		return 0, "", fmt.Errorf("%w: root has no parent", ErrBadPath)
	}
	dir := strings.Join(parts[:len(parts)-1], "/")
	parent, err := f.walk(dir)
	if err != nil {
		return 0, "", err
	}
	info, err := f.in.Stat(parent)
	if err != nil {
		return 0, "", err
	}
	if info.Mode != inode.ModeTree {
		return 0, "", fmt.Errorf("%w: %q", ErrNotDir, dir)
	}
	return parent, parts[len(parts)-1], nil
}

// Mkdir creates a single directory; the parent must exist.
func (f *FS) Mkdir(path string) error {
	parent, name, err := f.walkParent(path)
	if err != nil {
		return err
	}
	if _, err := f.in.Lookup(parent, name); err == nil {
		return fmt.Errorf("%w: %q", ErrExists, path)
	}
	ino, err := f.in.AllocInode(inode.ModeTree, "")
	if err != nil {
		return err
	}
	if err := f.in.AddChild(parent, name, ino); err != nil {
		_ = f.in.FreeInode(ino) // best-effort rollback of the orphan
		return err
	}
	return nil
}

// MkdirAll creates path and any missing parents.
func (f *FS) MkdirAll(path string) error {
	parts, err := splitPath(path)
	if err != nil {
		return err
	}
	cur := ""
	for _, p := range parts {
		cur = cur + "/" + p
		err := f.Mkdir(cur)
		if err != nil && !errors.Is(err, ErrExists) {
			return err
		}
	}
	return nil
}

// WriteFile creates or replaces the file at path with data.
func (f *FS) WriteFile(path string, data []byte) error {
	parent, name, err := f.walkParent(path)
	if err != nil {
		return err
	}
	existing, err := f.in.Lookup(parent, name)
	switch {
	case err == nil:
		info, err := f.in.Stat(existing)
		if err != nil {
			return err
		}
		if info.Mode == inode.ModeTree {
			return fmt.Errorf("%w: %q", ErrIsDir, path)
		}
		if err := f.in.Truncate(existing, 0); err != nil {
			return err
		}
		_, err = f.in.WriteAt(existing, 0, data)
		return err
	case errors.Is(err, inode.ErrChildNotFound):
		ino, err := f.in.AllocInode(inode.ModeFile, "")
		if err != nil {
			return err
		}
		if _, err := f.in.WriteAt(ino, 0, data); err != nil {
			_ = f.in.FreeInode(ino)
			return err
		}
		if err := f.in.AddChild(parent, name, ino); err != nil {
			_ = f.in.FreeInode(ino)
			return err
		}
		return nil
	default:
		return err
	}
}

// ReadFile returns the full contents of the file at path.
func (f *FS) ReadFile(path string) ([]byte, error) {
	ino, err := f.walk(path)
	if err != nil {
		return nil, err
	}
	info, err := f.in.Stat(ino)
	if err != nil {
		return nil, err
	}
	if info.Mode == inode.ModeTree {
		return nil, fmt.Errorf("%w: %q", ErrIsDir, path)
	}
	buf := make([]byte, info.Size)
	if _, err := f.in.ReadAt(ino, 0, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// Remove deletes the file or empty directory at path. Like ext4, removal
// frees blocks without scrubbing them: the data remains in free space and in
// the journal, which is precisely the baseline's compliance gap.
func (f *FS) Remove(path string) error {
	parent, name, err := f.walkParent(path)
	if err != nil {
		return err
	}
	ino, err := f.in.Lookup(parent, name)
	if err != nil {
		if errors.Is(err, inode.ErrChildNotFound) {
			return fmt.Errorf("%w: %q", ErrNotFound, path)
		}
		return err
	}
	info, err := f.in.Stat(ino)
	if err != nil {
		return err
	}
	if info.Mode == inode.ModeTree {
		children, err := f.in.Children(ino)
		if err != nil {
			return err
		}
		if len(children) > 0 {
			return fmt.Errorf("%w: %q", ErrNotEmpty, path)
		}
	}
	if err := f.in.RemoveChild(parent, name); err != nil {
		return err
	}
	return f.in.FreeInode(ino)
}

// List returns the entries of the directory at path.
func (f *FS) List(path string) ([]Entry, error) {
	ino, err := f.walk(path)
	if err != nil {
		return nil, err
	}
	info, err := f.in.Stat(ino)
	if err != nil {
		return nil, err
	}
	if info.Mode != inode.ModeTree {
		return nil, fmt.Errorf("%w: %q", ErrNotDir, path)
	}
	dirents, err := f.in.Children(ino)
	if err != nil {
		return nil, err
	}
	out := make([]Entry, 0, len(dirents))
	for _, d := range dirents {
		ci, err := f.in.Stat(d.Ino)
		if err != nil {
			return nil, err
		}
		out = append(out, Entry{Name: d.Name, IsDir: ci.Mode == inode.ModeTree, Size: ci.Size})
	}
	return out, nil
}

// Exists reports whether path resolves.
func (f *FS) Exists(path string) bool {
	_, err := f.walk(path)
	return err == nil
}
