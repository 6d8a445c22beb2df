package dbfs

// The cold-tier container: one archive per subject (or per snapshot and
// filesystem instance) holding, per record pdid, its named stored parts.
// Records reach an archive as the ciphertext the hot tier stored, each
// sealed under its own key with a fresh nonce, so no two records' parts
// are ever equal and there is nothing to deduplicate: an archive is a
// plain map, Put replaces an entry and Remove deletes one.

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// ErrBadArchive reports an archive file that fails to decode: wrong magic,
// checksum mismatch, a bad flate or JSON stream, or an entry that is both
// erased and stored.
var ErrBadArchive = errors.New("dbfs: bad cold archive")

// archiveMagic heads every encoded archive; the trailing byte is the
// format version.
var archiveMagic = []byte{'C', 'T', 'A', '2'}

// archiveHeader is the magic plus the CRC32C of the payload after it.
const archiveHeader = 8

var archiveCRC = crc32.MakeTable(crc32.Castagnoli)

// archiveEntry is one archived record: its stored parts by name, or an
// erased marker for a snapshot entry whose record was already
// crypto-shredded when the snapshot was taken (nothing to store, nothing
// to resurrect).
type archiveEntry struct {
	Parts  map[string][]byte `json:"parts,omitempty"`
	Erased bool              `json:"erased,omitempty"`
}

// archive maps pdid → entry. Not safe for concurrent use; callers hold the
// shard's cold mutex (or, for snapshots, build it single-threaded).
type archive map[string]archiveEntry

// rawSize is the byte total of every stored part: what the entries
// occupied as individual files, before block padding.
func (a archive) rawSize() int64 {
	var n int64
	for _, e := range a {
		for _, b := range e.Parts {
			n += int64(len(b))
		}
	}
	return n
}

// encode serializes the archive: magic, the CRC32C of the payload, then
// the payload, a flate stream of the JSON map. encoding/json writes map
// keys sorted, so equal archives encode to equal bytes.
func (a archive) encode() ([]byte, error) {
	raw, err := json.Marshal(a)
	if err != nil {
		return nil, fmt.Errorf("dbfs: encode cold archive: %w", err)
	}
	var buf bytes.Buffer
	buf.Write(make([]byte, archiveHeader))
	zw, err := flate.NewWriter(&buf, flate.DefaultCompression)
	if err != nil {
		return nil, fmt.Errorf("dbfs: encode cold archive: %w", err)
	}
	if _, err := zw.Write(raw); err != nil {
		return nil, fmt.Errorf("dbfs: encode cold archive: %w", err)
	}
	if err := zw.Close(); err != nil {
		return nil, fmt.Errorf("dbfs: encode cold archive: %w", err)
	}
	out := buf.Bytes()
	frameArchive(out)
	return out, nil
}

// frameArchive fills the header of b (magic, then the CRC32C of
// b[archiveHeader:]).
func frameArchive(b []byte) {
	copy(b, archiveMagic)
	binary.LittleEndian.PutUint32(b[len(archiveMagic):], crc32.Checksum(b[archiveHeader:], archiveCRC))
}

// decodeArchive parses an encoded archive. Any damage fails with
// ErrBadArchive instead of serving wrong bytes.
func decodeArchive(b []byte) (archive, error) {
	if len(b) < archiveHeader || !bytes.Equal(b[:len(archiveMagic)], archiveMagic) {
		return nil, fmt.Errorf("%w: bad magic or short header", ErrBadArchive)
	}
	payload := b[archiveHeader:]
	if binary.LittleEndian.Uint32(b[len(archiveMagic):]) != crc32.Checksum(payload, archiveCRC) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrBadArchive)
	}
	zr := flate.NewReader(bytes.NewReader(payload))
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadArchive, err)
	}
	if err := zr.Close(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadArchive, err)
	}
	var a archive
	if err := json.Unmarshal(raw, &a); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadArchive, err)
	}
	if a == nil { // a JSON null: no entries
		a = archive{}
	}
	for id, e := range a {
		if e.Erased && len(e.Parts) > 0 {
			return nil, fmt.Errorf("%w: entry %s both erased and stored", ErrBadArchive, id)
		}
	}
	return a, nil
}
