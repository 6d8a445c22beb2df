// Package golden is the stdlib golden-file idiom for the deterministic
// experiment tests (SC7 in internal/dbfs, SC8 in internal/cluster, SC9 in
// internal/workload): a result is encoded as indented JSON and compared
// byte for byte with a checked-in testdata file. Only tests import it.
//
// A deliberate count change is accepted by rerunning the test with
// -update, which rewrites the file; the diff is the reviewed record.
package golden

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata golden files with the current results")

// maxDiffLines caps how many differing lines one failure prints.
const maxDiffLines = 12

// JSON encodes v as indented JSON with a trailing newline and compares it
// with the golden file at path, naming up to maxDiffLines differing lines.
func JSON(t testing.TB, path string, v any) {
	t.Helper()
	got, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatalf("golden: encode: %v", err)
	}
	got = append(got, '\n')
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatalf("golden: %v", err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden: %v (run the test with -update to create it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	var diff strings.Builder
	shown := 0
	for i := 0; i < max(len(gl), len(wl)) && shown < maxDiffLines; i++ {
		g, w := lineAt(gl, i), lineAt(wl, i)
		if g != w {
			fmt.Fprintf(&diff, "\n  line %d:\n    got  %s\n    want %s", i+1, g, w)
			shown++
		}
	}
	t.Errorf("%s differs (rerun with -update to accept a deliberate change):%s", path, diff.String())
}

func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return strings.TrimSpace(lines[i])
	}
	return "<EOF>"
}
