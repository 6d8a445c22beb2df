package inode

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/blockdev"
	"repro/internal/simclock"
)

// newFS formats a fresh filesystem on an in-memory device.
func newFS(t *testing.T, blocks uint64) (*blockdev.Mem, *FS) {
	t.Helper()
	dev := blockdev.MustMem(blocks)
	fs, err := Format(dev, Options{NInodes: 256, JournalBlocks: 64, Clock: simclock.NewSim(simclock.Epoch)})
	if err != nil {
		t.Fatalf("Format: %v", err)
	}
	return dev, fs
}

func TestFormatCreatesRoot(t *testing.T) {
	_, fs := newFS(t, 512)
	info, err := fs.Stat(RootIno)
	if err != nil {
		t.Fatalf("Stat(root): %v", err)
	}
	if info.Mode != ModeTree || info.Tag != "root" {
		t.Fatalf("root info = %+v", info)
	}
}

func TestFormatTooSmall(t *testing.T) {
	dev := blockdev.MustMem(16)
	if _, err := Format(dev, Options{NInodes: 256, JournalBlocks: 64}); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("Format on tiny device err = %v, want ErrNoSpace", err)
	}
}

func TestAllocFreeInode(t *testing.T) {
	_, fs := newFS(t, 512)
	ino, err := fs.AllocInode(ModeFile, "pd")
	if err != nil {
		t.Fatalf("AllocInode: %v", err)
	}
	info, err := fs.Stat(ino)
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode != ModeFile || info.Tag != "pd" || info.Size != 0 {
		t.Fatalf("info = %+v", info)
	}
	if err := fs.FreeInode(ino); err != nil {
		t.Fatalf("FreeInode: %v", err)
	}
	if _, err := fs.Stat(ino); !errors.Is(err, ErrBadInode) {
		t.Fatalf("Stat after free err = %v, want ErrBadInode", err)
	}
}

func TestAllocModeFreeRejected(t *testing.T) {
	_, fs := newFS(t, 512)
	if _, err := fs.AllocInode(ModeFree, ""); !errors.Is(err, ErrBadInode) {
		t.Fatalf("AllocInode(ModeFree) err = %v, want ErrBadInode", err)
	}
}

func TestTagLimits(t *testing.T) {
	_, fs := newFS(t, 512)
	long := string(make([]byte, MaxTagLen+1))
	if _, err := fs.AllocInode(ModeFile, long); !errors.Is(err, ErrTagTooLong) {
		t.Fatalf("long tag err = %v, want ErrTagTooLong", err)
	}
	ino, err := fs.AllocInode(ModeFile, "schema:user")
	if err != nil {
		t.Fatal(err)
	}
	info, _ := fs.Stat(ino)
	if info.Tag != "schema:user" {
		t.Fatalf("Tag = %q", info.Tag)
	}
}

func TestWriteReadSmall(t *testing.T) {
	_, fs := newFS(t, 512)
	ino, err := fs.AllocInode(ModeFile, "")
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("hello, dbfs")
	n, err := fs.WriteAt(ino, 0, data)
	if err != nil || n != len(data) {
		t.Fatalf("WriteAt = %d, %v", n, err)
	}
	out := make([]byte, len(data))
	n, err = fs.ReadAt(ino, 0, out)
	if err != nil || n != len(data) {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	if !bytes.Equal(data, out) {
		t.Fatalf("round trip: %q != %q", out, data)
	}
}

func TestWriteReadOffsets(t *testing.T) {
	_, fs := newFS(t, 1024)
	ino, _ := fs.AllocInode(ModeFile, "")
	// Write a pattern spanning three blocks at an unaligned offset.
	data := make([]byte, 3*blockdev.BlockSize)
	for i := range data {
		data[i] = byte(i*7 + 3)
	}
	off := uint64(blockdev.BlockSize/2 + 17)
	if _, err := fs.WriteAt(ino, off, data); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	info, _ := fs.Stat(ino)
	if want := off + uint64(len(data)); info.Size != want {
		t.Fatalf("Size = %d, want %d", info.Size, want)
	}
	out := make([]byte, len(data))
	if _, err := fs.ReadAt(ino, off, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, out) {
		t.Fatal("unaligned round trip mismatch")
	}
	// The hole before off reads as zeros.
	hole := make([]byte, off)
	if _, err := fs.ReadAt(ino, 0, hole); err != nil {
		t.Fatal(err)
	}
	for i, b := range hole {
		if b != 0 {
			t.Fatalf("hole byte %d = %d, want 0", i, b)
		}
	}
}

func TestReadPastEnd(t *testing.T) {
	_, fs := newFS(t, 512)
	ino, _ := fs.AllocInode(ModeFile, "")
	if _, err := fs.WriteAt(ino, 0, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 10)
	n, err := fs.ReadAt(ino, 0, out)
	if err != nil || n != 3 {
		t.Fatalf("ReadAt over end = %d, %v; want 3, nil", n, err)
	}
	n, err = fs.ReadAt(ino, 100, out)
	if err != nil || n != 0 {
		t.Fatalf("ReadAt past end = %d, %v; want 0, nil", n, err)
	}
}

func TestIndirectBlocks(t *testing.T) {
	_, fs := newFS(t, 2048)
	ino, _ := fs.AllocInode(ModeFile, "")
	// Past the 12 direct blocks into single-indirect territory.
	size := (NumDirect + 5) * blockdev.BlockSize
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i % 249)
	}
	if _, err := fs.WriteAt(ino, 0, data); err != nil {
		t.Fatalf("indirect WriteAt: %v", err)
	}
	out := make([]byte, size)
	if _, err := fs.ReadAt(ino, 0, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, out) {
		t.Fatal("indirect round trip mismatch")
	}
}

func TestDoubleIndirectBlocks(t *testing.T) {
	_, fs := newFS(t, 2048)
	ino, _ := fs.AllocInode(ModeFile, "")
	// One write landing in double-indirect range: block index > 12 + 512.
	off := uint64(NumDirect+PtrsPerBlock+3) * blockdev.BlockSize
	data := []byte("deep block")
	if _, err := fs.WriteAt(ino, off, data); err != nil {
		t.Fatalf("double-indirect WriteAt: %v", err)
	}
	out := make([]byte, len(data))
	if _, err := fs.ReadAt(ino, off, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, out) {
		t.Fatal("double-indirect round trip mismatch")
	}
}

func TestTruncateShrinks(t *testing.T) {
	_, fs := newFS(t, 1024)
	ino, _ := fs.AllocInode(ModeFile, "")
	data := make([]byte, 5*blockdev.BlockSize)
	if _, err := fs.WriteAt(ino, 0, data); err != nil {
		t.Fatal(err)
	}
	before := fs.FreeBlocks()
	if err := fs.Truncate(ino, blockdev.BlockSize); err != nil {
		t.Fatalf("Truncate: %v", err)
	}
	info, _ := fs.Stat(ino)
	if info.Size != blockdev.BlockSize {
		t.Fatalf("Size after truncate = %d", info.Size)
	}
	if after := fs.FreeBlocks(); after != before+4 {
		t.Fatalf("FreeBlocks = %d, want %d", after, before+4)
	}
}

func TestFreeInodeReleasesBlocks(t *testing.T) {
	_, fs := newFS(t, 1024)
	before := fs.FreeBlocks()
	ino, _ := fs.AllocInode(ModeFile, "")
	data := make([]byte, 20*blockdev.BlockSize) // uses indirect too
	if _, err := fs.WriteAt(ino, 0, data); err != nil {
		t.Fatal(err)
	}
	if err := fs.FreeInode(ino); err != nil {
		t.Fatal(err)
	}
	if after := fs.FreeBlocks(); after != before {
		t.Fatalf("FreeBlocks after free = %d, want %d", after, before)
	}
}

func TestFreeLeavesResidue(t *testing.T) {
	// The ext4-like residue semantics the GDPR experiments rely on:
	// deleting a file leaves its plaintext in free space.
	dev, fs := newFS(t, 512)
	ino, _ := fs.AllocInode(ModeFile, "")
	secret := []byte("residue:alice:hiv-positive")
	if _, err := fs.WriteAt(ino, 0, secret); err != nil {
		t.Fatal(err)
	}
	if err := fs.FreeInode(ino); err != nil {
		t.Fatal(err)
	}
	if hits := blockdev.FindResidue(dev, secret); len(hits) == 0 {
		t.Fatal("expected residue after FreeInode, found none")
	}
}

func TestSecureFreeScrubsHomeBlocks(t *testing.T) {
	dev, fs := newFS(t, 512)
	ino, _ := fs.AllocInode(ModeFile, "")
	secret := []byte("scrubme:bob:criminal-record")
	if _, err := fs.WriteAt(ino, 0, secret); err != nil {
		t.Fatal(err)
	}
	if err := fs.SecureFreeInode(ino); err != nil {
		t.Fatal(err)
	}
	// Home blocks are scrubbed, but the journal still holds the old image:
	// SecureFree alone is NOT enough for the right to be forgotten.
	hits := blockdev.FindResidue(dev, secret)
	jStart, jLen := fs.sb.JournalStart, fs.sb.JournalBlocks
	for _, h := range hits {
		if h < jStart || h >= jStart+jLen {
			t.Fatalf("residue outside journal at block %d after SecureFree", h)
		}
	}
	if len(hits) == 0 {
		t.Fatal("journal should still hold the old image (redo logging)")
	}
}

func TestMountRecoversState(t *testing.T) {
	dev, fs := newFS(t, 512)
	ino, err := fs.AllocInode(ModeFile, "persist")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.WriteAt(ino, 0, []byte("durable data")); err != nil {
		t.Fatal(err)
	}
	fs2, err := Mount(dev, simclock.NewSim(simclock.Epoch))
	if err != nil {
		t.Fatalf("Mount: %v", err)
	}
	info, err := fs2.Stat(ino)
	if err != nil {
		t.Fatal(err)
	}
	if info.Tag != "persist" {
		t.Fatalf("Tag after mount = %q", info.Tag)
	}
	out := make([]byte, 12)
	if _, err := fs2.ReadAt(ino, 0, out); err != nil {
		t.Fatal(err)
	}
	if string(out) != "durable data" {
		t.Fatalf("data after mount = %q", out)
	}
}

func TestMountUnformatted(t *testing.T) {
	dev := blockdev.MustMem(64)
	if _, err := Mount(dev, nil); !errors.Is(err, ErrNotFormatted) {
		t.Fatalf("Mount unformatted err = %v, want ErrNotFormatted", err)
	}
}

func TestTreeAddLookupRemove(t *testing.T) {
	_, fs := newFS(t, 512)
	child, _ := fs.AllocInode(ModeFile, "")
	if err := fs.AddChild(RootIno, "alice", child); err != nil {
		t.Fatalf("AddChild: %v", err)
	}
	got, err := fs.Lookup(RootIno, "alice")
	if err != nil || got != child {
		t.Fatalf("Lookup = %d, %v", got, err)
	}
	if err := fs.AddChild(RootIno, "alice", child); !errors.Is(err, ErrChildExists) {
		t.Fatalf("duplicate AddChild err = %v, want ErrChildExists", err)
	}
	info, _ := fs.Stat(child)
	if info.Links != 1 {
		t.Fatalf("Links = %d, want 1", info.Links)
	}
	if err := fs.RemoveChild(RootIno, "alice"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Lookup(RootIno, "alice"); !errors.Is(err, ErrChildNotFound) {
		t.Fatalf("Lookup after remove err = %v, want ErrChildNotFound", err)
	}
	info, _ = fs.Stat(child)
	if info.Links != 0 {
		t.Fatalf("Links after remove = %d, want 0", info.Links)
	}
}

func TestTreeManyChildren(t *testing.T) {
	_, fs := newFS(t, 2048)
	names := make(map[string]Ino)
	for i := 0; i < 200; i++ {
		ino, err := fs.AllocInode(ModeFile, "")
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		name := "subject-" + string(rune('a'+i%26)) + "-" + string(rune('0'+i%10)) + "-" + itoa(i)
		if err := fs.AddChild(RootIno, name, ino); err != nil {
			t.Fatalf("AddChild %d: %v", i, err)
		}
		names[name] = ino
	}
	ents, err := fs.Children(RootIno)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 200 {
		t.Fatalf("Children = %d, want 200", len(ents))
	}
	for name, want := range names {
		got, err := fs.Lookup(RootIno, name)
		if err != nil || got != want {
			t.Fatalf("Lookup(%q) = %d, %v; want %d", name, got, err, want)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func TestTreeOnFileRejected(t *testing.T) {
	_, fs := newFS(t, 512)
	f, _ := fs.AllocInode(ModeFile, "")
	c, _ := fs.AllocInode(ModeFile, "")
	if err := fs.AddChild(f, "x", c); !errors.Is(err, ErrNotTree) {
		t.Fatalf("AddChild on file err = %v, want ErrNotTree", err)
	}
}

func TestFreeNonEmptyTreeRejected(t *testing.T) {
	_, fs := newFS(t, 512)
	tree, _ := fs.AllocInode(ModeTree, "")
	c, _ := fs.AllocInode(ModeFile, "")
	if err := fs.AddChild(tree, "x", c); err != nil {
		t.Fatal(err)
	}
	if err := fs.FreeInode(tree); !errors.Is(err, ErrTreeNotEmpty) {
		t.Fatalf("FreeInode(non-empty tree) err = %v, want ErrTreeNotEmpty", err)
	}
}

func TestInodeExhaustion(t *testing.T) {
	dev := blockdev.MustMem(4096)
	fs, err := Format(dev, Options{NInodes: 16, JournalBlocks: 16, Clock: simclock.NewSim(simclock.Epoch)})
	if err != nil {
		t.Fatal(err)
	}
	// Root uses ino 1; the table holds 16, so 14 more allocs succeed.
	for i := 0; i < 14; i++ {
		if _, err := fs.AllocInode(ModeFile, ""); err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
	}
	if _, err := fs.AllocInode(ModeFile, ""); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("exhausted alloc err = %v, want ErrNoSpace", err)
	}
}

func TestBlockExhaustion(t *testing.T) {
	dev := blockdev.MustMem(96)
	fs, err := Format(dev, Options{NInodes: 32, JournalBlocks: 16, Clock: simclock.NewSim(simclock.Epoch)})
	if err != nil {
		t.Fatal(err)
	}
	ino, _ := fs.AllocInode(ModeFile, "")
	big := make([]byte, 100*blockdev.BlockSize)
	if _, err := fs.WriteAt(ino, 0, big); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("oversized write err = %v, want ErrNoSpace", err)
	}
}

func TestInodeCodecRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	err := quick.Check(func(mode uint8, links uint32, size uint64, mtime int64, tagBytes []byte) bool {
		if len(tagBytes) > MaxTagLen {
			tagBytes = tagBytes[:MaxTagLen]
		}
		in := dinode{
			Mode:      Mode(mode%3 + 1),
			Links:     links,
			Size:      size,
			MTimeNano: mtime,
			Tag:       string(tagBytes),
		}
		for i := range in.Direct {
			in.Direct[i] = size + uint64(i)
		}
		in.Indirect = size ^ 0xdead
		in.DblInd = size ^ 0xbeef
		buf := make([]byte, InodeSize)
		encodeInode(in, buf)
		out := decodeInode(buf)
		return in.Mode == out.Mode && in.Links == out.Links && in.Size == out.Size &&
			in.MTimeNano == out.MTimeNano && in.Tag == out.Tag &&
			in.Direct == out.Direct && in.Indirect == out.Indirect && in.DblInd == out.DblInd
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

func TestDirentCodecRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 100}
	err := quick.Check(func(names []string, inos []uint64) bool {
		n := len(names)
		if len(inos) < n {
			n = len(inos)
		}
		in := make([]Dirent, 0, n)
		for i := 0; i < n; i++ {
			name := names[i]
			if len(name) > maxNameLen {
				name = name[:maxNameLen]
			}
			in = append(in, Dirent{Name: name, Ino: Ino(inos[i])})
		}
		out, err := decodeDirents(encodeDirents(in))
		if err != nil {
			return false
		}
		if len(out) != len(in) {
			return false
		}
		for i := range in {
			if in[i] != out[i] {
				return false
			}
		}
		return true
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

func TestDirentDecodeCorrupt(t *testing.T) {
	if _, err := decodeDirents([]byte{5}); err == nil {
		t.Fatal("decodeDirents accepted truncated header")
	}
	// Header claims 10-byte name but body is short.
	if _, err := decodeDirents([]byte{10, 0, 'a', 'b'}); err == nil {
		t.Fatal("decodeDirents accepted truncated body")
	}
}
