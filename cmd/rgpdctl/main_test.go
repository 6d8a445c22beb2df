package main

import (
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

func ptr[T any](v T) *T { return &v }

// TestParseTuning: every knob usage() lists lands in its own Tuning field,
// and malformed arguments are errors rather than silently dropped knobs.
func TestParseTuning(t *testing.T) {
	cases := map[string]struct {
		arg  string
		want core.Tuning
	}{
		"commit_window":         {"commit_window=2ms", core.Tuning{CommitWindow: ptr(2 * time.Millisecond)}},
		"group_max_batch":       {"group_max_batch=8", core.Tuning{GroupMaxBatch: ptr(8)}},
		"admission_max_pending": {"admission_max_pending=64", core.Tuning{AdmissionMaxPending: ptr(64)}},
		"membrane_cache":        {"membrane_cache=-1", core.Tuning{MembraneCache: ptr(-1)}},
		"rights_workers":        {"rights_workers=4", core.Tuning{RightsWorkers: ptr(4)}},
		"sweep_interval":        {"sweep_interval=30s", core.Tuning{SweepInterval: ptr(30 * time.Second)}},
		"rate_limit": {"rate_limit=purpose3:2.5:4", core.Tuning{RateLimits: []core.RateLimit{
			{Purpose: "purpose3", RatePerSec: 2.5, Burst: 4}}}},
		"cold_after":      {"cold_after=1h", core.Tuning{ColdAfter: ptr(time.Hour)}},
		"repack_interval": {"repack_interval=1m", core.Tuning{RepackInterval: ptr(time.Minute)}},
	}

	// The table covers exactly the knobs usage() advertises.
	_, knobText, ok := strings.Cut(usageText, "knobs:")
	if !ok {
		t.Fatal("usage text has no knobs: section")
	}
	var listed, tested []string
	for _, f := range strings.Fields(knobText) {
		k, _, _ := strings.Cut(f, "=")
		listed = append(listed, k)
	}
	for k := range cases {
		tested = append(tested, k)
	}
	sort.Strings(listed)
	sort.Strings(tested)
	if !reflect.DeepEqual(listed, tested) {
		t.Fatalf("usage lists knobs %v, test covers %v", listed, tested)
	}

	for knob, tc := range cases {
		got, err := parseTuning([]string{tc.arg})
		if err != nil {
			t.Fatalf("%s: parseTuning(%q): %v", knob, tc.arg, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("%s: parseTuning(%q) = %+v, want %+v", knob, tc.arg, got, tc.want)
		}
	}

	for _, bad := range []string{
		"bogus=1",                    // unknown knob
		"commit_window",              // not knob=value
		"rate_limit=purpose3:1",      // too few rate_limit parts
		"rate_limit=purpose3:fast:4", // non-numeric rate
		"rate_limit=purpose3:1:lots", // non-numeric burst
		"sweep_interval=30",          // duration without a unit
		"repack_interval=soon",       // not a duration
		"group_max_batch=eight",      // not an integer
		"serial_ops=true",            // removed knob: unknown
	} {
		if _, err := parseTuning([]string{bad}); err == nil {
			t.Fatalf("parseTuning(%q) succeeded, want an error", bad)
		}
	}
}
