package dbfs

import (
	"bytes"
	"compress/flate"
	"errors"
	"testing"
)

func TestArchiveRoundTrip(t *testing.T) {
	a := archive{
		"user/alice/1": {Parts: map[string][]byte{"data": []byte("ciphertext-1"), "mem": []byte("m1")}},
		"user/alice/2": {Parts: map[string][]byte{"data": []byte("ciphertext-2"), "sens": []byte("s2"), "mem": []byte("m2")}},
	}
	if got, want := a.rawSize(), int64(len("ciphertext-1")+2+len("ciphertext-2")+2+2); got != want {
		t.Fatalf("rawSize = %d, want %d", got, want)
	}
	enc, err := a.encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	b, err := decodeArchive(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !sameArchive(a, b) {
		t.Fatalf("decoded %v, want %v", b, a)
	}
	// Put replaces, Remove deletes.
	b["user/alice/1"] = archiveEntry{Parts: map[string][]byte{"data": []byte("x")}}
	delete(b, "user/alice/2")
	enc2, err := b.encode()
	if err != nil {
		t.Fatal(err)
	}
	c, err := decodeArchive(enc2)
	if err != nil {
		t.Fatal(err)
	}
	if len(c) != 1 || !bytes.Equal(c["user/alice/1"].Parts["data"], []byte("x")) {
		t.Fatalf("after replace and remove: %v", c)
	}
}

func TestArchiveDeterministicEncode(t *testing.T) {
	build := func(order []string) []byte {
		a := archive{}
		for _, id := range order {
			a[id] = archiveEntry{Parts: map[string][]byte{"data": []byte("payload-" + id), "mem": []byte("m")}}
		}
		enc, err := a.encode()
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		return enc
	}
	e1 := build([]string{"t/s/1", "t/s/2", "t/s/3"})
	e2 := build([]string{"t/s/3", "t/s/1", "t/s/2"})
	if !bytes.Equal(e1, e2) {
		t.Fatal("encode is insertion-order dependent; must be deterministic for SC7")
	}
}

func TestArchiveErasedMarker(t *testing.T) {
	a := archive{"gone": {Erased: true}}
	if a.rawSize() != 0 {
		t.Fatalf("rawSize of an erased marker = %d, want 0", a.rawSize())
	}
	enc, err := a.encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	b, err := decodeArchive(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if e, ok := b["gone"]; !ok || !e.Erased || e.Parts != nil {
		t.Fatalf("decoded entry = (%+v, %v), want erased marker", e, ok)
	}
}

// framedPayload frames payload as an archive with a valid header, so a
// test reaches the stream and entry checks behind the checksum.
func framedPayload(payload []byte) []byte {
	b := append(make([]byte, archiveHeader), payload...)
	frameArchive(b)
	return b
}

func TestDecodeRejectsCorruption(t *testing.T) {
	a := archive{"t/s/1": {Parts: map[string][]byte{"data": []byte("some-record-bytes")}}}
	enc, err := a.encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	flipped := append([]byte(nil), enc...)
	flipped[len(flipped)-1] ^= 0x01
	oldMagic := append([]byte("CTA1"), enc[len(archiveMagic):]...)
	bothJSON := `{"x":{"parts":{"data":"AA=="},"erased":true}}`
	for name, b := range map[string][]byte{
		"bad magic":             []byte("XYZ"),
		"CTA1 magic":            oldMagic,
		"truncated":             enc[:len(enc)-4],
		"flipped payload byte":  flipped,
		"bad stream":            framedPayload([]byte("not a flate stream")),
		"erased and stored":     framedPayload(deflate(t, []byte(bothJSON))),
		"payload not a map":     framedPayload(deflate(t, []byte(`[1,2]`))),
		"header without stream": enc[:archiveHeader],
	} {
		if _, err := decodeArchive(b); !errors.Is(err, ErrBadArchive) {
			t.Errorf("decode(%s) = %v, want ErrBadArchive", name, err)
		}
	}
}

// deflate compresses b the way encode does.
func deflate(t testing.TB, b []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw, err := flate.NewWriter(&buf, flate.DefaultCompression)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameArchive reports whether a and b hold the same entries: the same ids,
// erased flags and part bytes (an absent part map equals an empty one).
func sameArchive(a, b archive) bool {
	if len(a) != len(b) {
		return false
	}
	for id, ea := range a {
		eb, ok := b[id]
		if !ok || ea.Erased != eb.Erased || len(ea.Parts) != len(eb.Parts) {
			return false
		}
		for name, pa := range ea.Parts {
			pb, ok := eb.Parts[name]
			if !ok || !bytes.Equal(pa, pb) {
				return false
			}
		}
	}
	return true
}

// FuzzArchiveDecode: any input either fails with ErrBadArchive or decodes
// to an archive that re-encodes and decodes to the same entries; decoding
// never panics. Each input is tried as a whole file and, framed with a
// valid header, as a payload, so the stream and entry checks behind the
// checksum are fuzzed too.
func FuzzArchiveDecode(f *testing.F) {
	seed := archive{
		"t/s/1": {Parts: map[string][]byte{"data": []byte("ct"), "mem": []byte("m")}},
		"t/s/2": {Erased: true},
	}
	enc, err := seed.encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	f.Add(enc[archiveHeader:])
	f.Add([]byte("CTA1"))
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, in := range [][]byte{b, framedPayload(b)} {
			a, err := decodeArchive(in)
			if err != nil {
				if !errors.Is(err, ErrBadArchive) {
					t.Fatalf("decode error %v does not wrap ErrBadArchive", err)
				}
				continue
			}
			re, err := a.encode()
			if err != nil {
				t.Fatalf("re-encode of a decoded archive: %v", err)
			}
			again, err := decodeArchive(re)
			if err != nil {
				t.Fatalf("decode of a re-encoded archive: %v", err)
			}
			if !sameArchive(a, again) {
				t.Fatalf("round trip changed the entries: %v -> %v", a, again)
			}
		}
	})
}
