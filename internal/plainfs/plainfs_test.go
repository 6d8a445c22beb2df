package plainfs

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/inode"
	"repro/internal/simclock"
)

func newFS(t *testing.T) (*blockdev.Mem, *FS) {
	t.Helper()
	dev := blockdev.MustMem(1024)
	fs, err := Format(dev, inode.Options{NInodes: 512, JournalBlocks: 64, Clock: simclock.NewSim(simclock.Epoch)})
	if err != nil {
		t.Fatalf("Format: %v", err)
	}
	return dev, fs
}

func TestWriteReadFile(t *testing.T) {
	_, fs := newFS(t)
	data := []byte("non-personal data: build logs")
	if err := fs.WriteFile("/logs.txt", data); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := fs.ReadFile("/logs.txt")
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip: %q", got)
	}
}

func TestWriteFileReplaces(t *testing.T) {
	_, fs := newFS(t)
	if err := fs.WriteFile("/f", []byte("first version, quite long")); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/f", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/f")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "v2" {
		t.Fatalf("after replace: %q", got)
	}
}

func TestMkdirHierarchy(t *testing.T) {
	_, fs := newFS(t)
	if err := fs.Mkdir("/data"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/data/subjects"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/data/subjects/list.csv", []byte("a,b")); err != nil {
		t.Fatal(err)
	}
	ents, err := fs.List("/data")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name != "subjects" || !ents[0].IsDir {
		t.Fatalf("List(/data) = %+v", ents)
	}
	ents, err = fs.List("/data/subjects")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name != "list.csv" || ents[0].IsDir || ents[0].Size != 3 {
		t.Fatalf("List(/data/subjects) = %+v", ents)
	}
}

func TestMkdirAll(t *testing.T) {
	_, fs := newFS(t)
	if err := fs.MkdirAll("/a/b/c"); err != nil {
		t.Fatalf("MkdirAll: %v", err)
	}
	if !fs.Exists("/a/b/c") {
		t.Fatal("MkdirAll did not create the chain")
	}
	// Idempotent.
	if err := fs.MkdirAll("/a/b/c"); err != nil {
		t.Fatalf("repeat MkdirAll: %v", err)
	}
}

func TestMkdirErrors(t *testing.T) {
	_, fs := newFS(t)
	if err := fs.Mkdir("/x/y"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Mkdir missing parent err = %v, want ErrNotFound", err)
	}
	if err := fs.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/d"); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate Mkdir err = %v, want ErrExists", err)
	}
	if err := fs.WriteFile("/file", nil); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/file/sub"); !errors.Is(err, ErrNotDir) {
		t.Fatalf("Mkdir under file err = %v, want ErrNotDir", err)
	}
}

func TestReadErrors(t *testing.T) {
	_, fs := newFS(t)
	if _, err := fs.ReadFile("/missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ReadFile missing err = %v, want ErrNotFound", err)
	}
	if err := fs.Mkdir("/dir"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFile("/dir"); !errors.Is(err, ErrIsDir) {
		t.Fatalf("ReadFile on dir err = %v, want ErrIsDir", err)
	}
	if err := fs.WriteFile("/dir", []byte("x")); !errors.Is(err, ErrIsDir) {
		t.Fatalf("WriteFile on dir err = %v, want ErrIsDir", err)
	}
}

func TestBadPaths(t *testing.T) {
	_, fs := newFS(t)
	for _, p := range []string{"/a//b", "/../etc", "/a/./b"} {
		if _, err := fs.ReadFile(p); !errors.Is(err, ErrBadPath) {
			t.Fatalf("ReadFile(%q) err = %v, want ErrBadPath", p, err)
		}
	}
}

func TestRemoveFile(t *testing.T) {
	_, fs := newFS(t)
	if err := fs.WriteFile("/f", []byte("bye")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("/f"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if fs.Exists("/f") {
		t.Fatal("file still exists after Remove")
	}
	if err := fs.Remove("/f"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double Remove err = %v, want ErrNotFound", err)
	}
}

func TestRemoveDir(t *testing.T) {
	_, fs := newFS(t)
	if err := fs.MkdirAll("/d/sub"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("/d"); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("Remove non-empty err = %v, want ErrNotEmpty", err)
	}
	if err := fs.Remove("/d/sub"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("/d"); err != nil {
		t.Fatalf("Remove empty dir: %v", err)
	}
}

func TestStatRoot(t *testing.T) {
	_, fs := newFS(t)
	ino, err := fs.walk("/")
	if err != nil {
		t.Fatalf("walk(/): %v", err)
	}
	info, err := fs.in.Stat(ino)
	if err != nil {
		t.Fatalf("Stat(/): %v", err)
	}
	if info.Mode != inode.ModeTree {
		t.Fatalf("root mode = %v", info.Mode)
	}
	if _, err := fs.List("/"); err != nil {
		t.Fatalf("List(/): %v", err)
	}
}

func TestDeletedFileLeavesResidue(t *testing.T) {
	// The paper's §1 example: data deleted at a higher layer is still
	// present below. plainfs removal leaves both free-space and journal
	// residues on the raw device.
	dev, fs := newFS(t)
	secret := []byte("PATIENT:chiraz:diagnosis=depression")
	if err := fs.WriteFile("/db/row42", append([]byte(nil), secret...)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want parent missing first, got %v", err)
	}
	if err := fs.Mkdir("/db"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/db/row42", secret); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("/db/row42"); err != nil {
		t.Fatal(err)
	}
	hits := blockdev.FindResidue(dev, secret)
	if len(hits) == 0 {
		t.Fatal("expected residues of deleted file, found none")
	}
}

func TestMountPersistence(t *testing.T) {
	dev, fs := newFS(t)
	if err := fs.MkdirAll("/persist/dir"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/persist/dir/f", []byte("still here")); err != nil {
		t.Fatal(err)
	}
	fs2, err := Mount(dev, simclock.NewSim(simclock.Epoch))
	if err != nil {
		t.Fatalf("Mount: %v", err)
	}
	got, err := fs2.ReadFile("/persist/dir/f")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "still here" {
		t.Fatalf("after remount: %q", got)
	}
}

func TestManyFiles(t *testing.T) {
	_, fs := newFS(t)
	if err := fs.Mkdir("/many"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		name := "/many/f" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		if err := fs.WriteFile(name, []byte{byte(i)}); err != nil {
			t.Fatalf("WriteFile %d: %v", i, err)
		}
	}
	ents, err := fs.List("/many")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 100 {
		t.Fatalf("List = %d entries, want 100", len(ents))
	}
}

func TestLargeFile(t *testing.T) {
	_, fs := newFS(t)
	big := make([]byte, 300*1024) // 300 KiB: exercises indirect blocks
	for i := range big {
		big[i] = byte(i * 31)
	}
	if err := fs.WriteFile("/big", big); err != nil {
		t.Fatalf("WriteFile big: %v", err)
	}
	got, err := fs.ReadFile("/big")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big) {
		t.Fatal("large file round trip mismatch")
	}
}
