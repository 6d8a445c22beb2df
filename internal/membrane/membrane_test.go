package membrane

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/simclock"
)

func validMembrane() *Membrane {
	m := New("user/alice/1", "user", "alice")
	m.SetConsent("purpose1", Grant{Kind: GrantAll})
	m.SetConsent("purpose2", Grant{Kind: GrantNone})
	m.SetConsent("purpose3", Grant{Kind: GrantView, View: "v_ano"})
	m.CreatedAt = simclock.Epoch
	m.TTL = 365 * 24 * time.Hour // the paper's "age: 1Y"
	return m
}

func TestValidate(t *testing.T) {
	if err := validMembrane().Validate(); err != nil {
		t.Fatalf("valid membrane rejected: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Membrane)
	}{
		{"missing pdid", func(m *Membrane) { m.PDID = "" }},
		{"missing type", func(m *Membrane) { m.TypeName = "" }},
		{"missing subject", func(m *Membrane) { m.SubjectID = "" }},
		{"bad origin", func(m *Membrane) { m.Origin = 99 }},
		{"bad sensitivity", func(m *Membrane) { m.Sensitivity = 0 }},
		{"empty purpose", func(m *Membrane) { m.Consents[""] = Grant{Kind: GrantAll} }},
		{"view grant without view", func(m *Membrane) { m.Consents["p"] = Grant{Kind: GrantView} }},
		{"all grant with view", func(m *Membrane) { m.Consents["p"] = Grant{Kind: GrantAll, View: "v"} }},
		{"bad grant kind", func(m *Membrane) { m.Consents["p"] = Grant{Kind: 42} }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m := validMembrane()
			tt.mutate(m)
			if err := m.Validate(); !errors.Is(err, ErrInvalid) {
				t.Fatalf("Validate = %v, want ErrInvalid", err)
			}
		})
	}
	var nilM *Membrane
	if err := nilM.Validate(); !errors.Is(err, ErrInvalid) {
		t.Fatalf("nil Validate = %v, want ErrInvalid", err)
	}
}

func TestDecideMatrix(t *testing.T) {
	// The paper's Listing 1 consent block: purpose1: all, purpose2: none,
	// purpose3: ano (a view).
	m := validMembrane()
	now := simclock.Epoch.Add(time.Hour)

	g, err := m.Decide("purpose1", now)
	if err != nil || g.Kind != GrantAll {
		t.Fatalf("purpose1: %+v, %v; want GrantAll", g, err)
	}
	if _, err := m.Decide("purpose2", now); !errors.Is(err, ErrConsentDenied) {
		t.Fatalf("purpose2 err = %v, want ErrConsentDenied", err)
	}
	g, err = m.Decide("purpose3", now)
	if err != nil || g.Kind != GrantView || g.View != "v_ano" {
		t.Fatalf("purpose3: %+v, %v; want view v_ano", g, err)
	}
	// Unknown purpose: deny by default.
	if _, err := m.Decide("marketing", now); !errors.Is(err, ErrConsentDenied) {
		t.Fatalf("unknown purpose err = %v, want ErrConsentDenied", err)
	}
}

func TestDecideTTL(t *testing.T) {
	m := validMembrane()
	before := simclock.Epoch.Add(364 * 24 * time.Hour)
	after := simclock.Epoch.Add(366 * 24 * time.Hour)
	if _, err := m.Decide("purpose1", before); err != nil {
		t.Fatalf("pre-TTL Decide: %v", err)
	}
	if _, err := m.Decide("purpose1", after); !errors.Is(err, ErrExpired) {
		t.Fatalf("post-TTL err = %v, want ErrExpired", err)
	}
	if !m.ExpiredAt(after) || m.ExpiredAt(before) {
		t.Fatal("ExpiredAt inconsistent with Decide")
	}
	// Zero TTL means no expiry.
	m.TTL = 0
	if m.ExpiredAt(after.Add(100 * 365 * 24 * time.Hour)) {
		t.Fatal("zero TTL expired")
	}
}

func TestDecideErasedAndRestricted(t *testing.T) {
	now := simclock.Epoch.Add(time.Hour)
	m := validMembrane()
	m.Erased = true
	if _, err := m.Decide("purpose1", now); !errors.Is(err, ErrErased) {
		t.Fatalf("erased err = %v, want ErrErased", err)
	}
	m = validMembrane()
	m.Restricted = true
	if _, err := m.Decide("purpose1", now); !errors.Is(err, ErrRestricted) {
		t.Fatalf("restricted err = %v, want ErrRestricted", err)
	}
}

func TestConsentMutationBumpsVersion(t *testing.T) {
	m := New("t/s/1", "t", "s")
	v0 := m.Version
	m.SetConsent("p", Grant{Kind: GrantAll})
	if m.Version != v0+1 {
		t.Fatalf("Version after SetConsent = %d", m.Version)
	}
	m.WithdrawConsent("p")
	if m.Version != v0+2 {
		t.Fatalf("Version after Withdraw = %d", m.Version)
	}
	if g := m.Consents["p"]; g.Kind != GrantNone {
		t.Fatalf("withdrawn grant = %+v", g)
	}
}

func TestWithdrawOnNilMap(t *testing.T) {
	m := &Membrane{PDID: "a", TypeName: "b", SubjectID: "c"}
	m.WithdrawConsent("p") // must not panic
	if g := m.Consents["p"]; g.Kind != GrantNone {
		t.Fatalf("grant = %+v", g)
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := validMembrane()
	cp := m.Clone()
	cp.SetConsent("purpose1", Grant{Kind: GrantNone})
	cp.Collection["web_form"] = "other.html"
	if g := m.Consents["purpose1"]; g.Kind != GrantAll {
		t.Fatal("Clone shares consent map")
	}
	if m.Collection["web_form"] == "other.html" {
		t.Fatal("Clone shares collection map")
	}
}

func TestCloneForCopyProvenance(t *testing.T) {
	m := validMembrane()
	c1 := m.CloneForCopy("user/alice/2")
	if c1.CopyOf != m.PDID || c1.PDID != "user/alice/2" {
		t.Fatalf("first copy: %+v", c1)
	}
	c2 := c1.CloneForCopy("user/alice/3")
	if c2.CopyOf != m.PDID {
		t.Fatalf("copy-of-copy CopyOf = %q, want root %q", c2.CopyOf, m.PDID)
	}
	if m.Root() != m.PDID || c1.Root() != m.PDID || c2.Root() != m.PDID {
		t.Fatalf("roots = %q, %q, %q, want %q", m.Root(), c1.Root(), c2.Root(), m.PDID)
	}
	// Consents travel with the copy.
	if g := c2.Consents["purpose3"]; g.View != "v_ano" {
		t.Fatalf("copy lost consents: %+v", c2.Consents)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := validMembrane()
	m.EscrowRef = "escrow-1"
	b, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.PDID != m.PDID || got.TTL != m.TTL || got.Version != m.Version ||
		got.EscrowRef != m.EscrowRef || len(got.Consents) != len(m.Consents) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", m, got)
	}
	for p, g := range m.Consents {
		if got.Consents[p] != g {
			t.Fatalf("consent %q: %+v != %+v", p, got.Consents[p], g)
		}
	}
}

func TestDecodeRejectsInvalid(t *testing.T) {
	m := validMembrane()
	m.Collection["web_form"] = "user_form.html"
	valid, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// patch returns a copy of valid with the bytes at off replaced.
	patch := func(off int, with ...byte) []byte {
		b := append([]byte(nil), valid[:off]...)
		b = append(b, with...)
		return append(b, valid[off+len(with):]...)
	}
	noPDID := New("x", "user", "alice")
	noPDID.PDID = ""
	unvalidated, err := noPDID.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// Offsets into valid, found by content.
	at := func(sub []byte) int {
		i := bytes.Index(valid, sub)
		if i < 0 {
			t.Fatalf("%q not in the encoding", sub)
		}
		return i
	}
	created, err := m.CreatedAt.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	timeAt := at(created)
	firstKey := at([]byte("purpose1"))
	consentCount := firstKey - 2 // the count, then the key's length prefix
	pdidLen := 1                 // right after the version byte
	cases := map[string][]byte{
		"empty":                nil,
		"json":                 []byte(`{"pdid":"user/alice/1","type":"user","subject":"alice","origin":1,"sensitivity":1}`),
		"not json":             []byte(`not json`),
		"unknown version":      patch(0, 2),
		"trailing byte":        append(append([]byte(nil), valid...), 0),
		"oversized length":     patch(pdidLen, 0xff, 0xff, 0xff, 0xff, 0x0f),
		"oversized count":      patch(consentCount, 0xff, 0xff, 0xff, 0xff, 0x0f),
		"overlong varint":      append([]byte{codecVersion, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, valid[2:]...),
		"non-minimal varint":   append([]byte{codecVersion, 0x80 | byte(len(m.PDID)), 0x00}, valid[2:]...),
		"unsorted keys":        patch(firstKey+len("purpose"), '9'),
		"bad flag":             patch(len(valid)-1, 2),
		"non-utc created_at":   patch(timeAt+13, 0, 0),
		"nanoseconds overflow": patch(timeAt+9, 0x7f, 0xff, 0xff, 0xff),
		"fails validate":       unvalidated,
	}
	for i := 0; i < len(valid); i++ {
		cases[fmt.Sprintf("truncated to %d", i)] = valid[:i]
	}
	for name, b := range cases {
		if _, err := Decode(b); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: Decode err = %v, want ErrInvalid", name, err)
		}
	}

	// A length or count prefix must not size an allocation before it is
	// checked against the bytes that follow it.
	for _, name := range []string{"oversized length", "oversized count"} {
		b := cases[name]
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 100; i++ {
			_, _ = Decode(b)
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / 100; per > 4096 {
			t.Errorf("%s: Decode allocated %d B per call", name, per)
		}
	}
}

// TestCodecAllocs bounds the allocations of the membrane codec, which runs
// on every membrane-cache miss and every membrane write.
func TestCodecAllocs(t *testing.T) {
	m := validMembrane()
	m.Collection["web_form"] = "user_form.html"
	b, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := Decode(b); err != nil {
			t.Fatal(err)
		}
	}); n > 8 {
		t.Errorf("Decode: %v allocations, want <= 8", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := m.Encode(); err != nil {
			t.Fatal(err)
		}
	}); n > 4 {
		t.Errorf("Encode: %v allocations, want <= 4", n)
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	err := quick.Check(func(pd, ty, subj string, ttlHours uint16, sens, origin, npurp uint8,
		coll map[string]string, copyOf, escrow string, erased, restricted bool,
		version uint64, sec int64, nsec uint32, zoneMin int16) bool {
		if pd == "" || ty == "" || subj == "" {
			return true // identity fields required; skip
		}
		m := New(pd, ty, subj)
		m.Origin = Origin(int(origin)%4 + 1)
		m.Sensitivity = Sensitivity(int(sens)%3 + 1)
		m.TTL = time.Duration(ttlHours) * time.Hour
		// Any instant in any whole-minute zone; Decode gives it back in UTC.
		m.CreatedAt = time.Unix(sec%(1<<40), int64(nsec%1e9)).In(time.FixedZone("z", int(zoneMin)*60))
		for i := 0; i < int(npurp%8); i++ {
			kind := GrantKind(i%3 + 1)
			g := Grant{Kind: kind}
			if kind == GrantView {
				g.View = "v" + string(rune('a'+i))
			}
			m.SetConsent("p"+string(rune('a'+i)), g)
		}
		m.Collection = coll
		m.Version = version
		m.CopyOf = copyOf
		m.EscrowRef = escrow
		m.Erased = erased
		m.Restricted = restricted
		b, err := m.Encode()
		if err != nil {
			return false
		}
		got, err := Decode(b)
		if err != nil {
			t.Logf("decode: %v", err)
			return false
		}
		if got.PDID != m.PDID || got.TypeName != m.TypeName || got.SubjectID != m.SubjectID ||
			got.Origin != m.Origin || got.Sensitivity != m.Sensitivity || got.TTL != m.TTL ||
			!got.CreatedAt.Equal(m.CreatedAt) || got.Version != m.Version ||
			got.CopyOf != m.CopyOf || got.EscrowRef != m.EscrowRef ||
			got.Erased != m.Erased || got.Restricted != m.Restricted ||
			len(got.Consents) != len(m.Consents) || len(got.Collection) != len(m.Collection) {
			return false
		}
		for p, g := range m.Consents {
			if got.Consents[p] != g {
				return false
			}
		}
		for k, v := range m.Collection {
			if gv, ok := got.Collection[k]; !ok || gv != v {
				return false
			}
		}
		again, err := got.Encode()
		return err == nil && bytes.Equal(again, b)
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

// FuzzDecode feeds arbitrary bytes to Decode: it must fail with ErrInvalid
// or return a membrane that re-encodes to exactly the input.
func FuzzDecode(f *testing.F) {
	m := validMembrane()
	m.Collection["web_form"] = "user_form.html"
	m.CopyOf, m.EscrowRef, m.Erased, m.Restricted = "user/alice/0", "escrow-1", true, true
	valid, err := m.Encode()
	if err != nil {
		f.Fatal(err)
	}
	bare, err := New("t/s/1", "t", "s").Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(bare)
	for i := 0; i < len(valid); i++ {
		f.Add(valid[:i])
	}
	f.Add([]byte(`{"pdid":"user/alice/1","type":"user","subject":"alice","origin":1,"sensitivity":1,"consents":{}}`))
	f.Add(append([]byte{codecVersion, 0xff, 0xff, 0xff, 0xff, 0x0f}, valid[2:]...))
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := Decode(b)
		if err != nil {
			if !errors.Is(err, ErrInvalid) {
				t.Fatalf("Decode err = %v, want ErrInvalid", err)
			}
			return
		}
		again, err := m.Encode()
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(again, b) {
			t.Fatalf("re-encoding differs:\n in: %x\nout: %x", b, again)
		}
	})
}

func TestParseOriginSensitivity(t *testing.T) {
	for _, s := range []string{"subject", "sysadmin", "third_party", "derived"} {
		o, err := ParseOrigin(s)
		if err != nil {
			t.Fatalf("ParseOrigin(%q): %v", s, err)
		}
		if o.String() != s {
			t.Fatalf("round trip %q -> %v -> %q", s, o, o.String())
		}
	}
	if _, err := ParseOrigin("mars"); err == nil {
		t.Fatal("ParseOrigin accepted garbage")
	}
	// The paper's Listing 1 misspells "hight"; accept it.
	s, err := ParseSensitivity("hight")
	if err != nil || s != SensitivityHigh {
		t.Fatalf("ParseSensitivity(hight) = %v, %v", s, err)
	}
	if _, err := ParseSensitivity("extreme"); err == nil {
		t.Fatal("ParseSensitivity accepted garbage")
	}
}

func TestGrantString(t *testing.T) {
	cases := map[string]Grant{
		"all":   {Kind: GrantAll},
		"none":  {Kind: GrantNone},
		"v_ano": {Kind: GrantView, View: "v_ano"},
	}
	for want, g := range cases {
		if got := g.String(); got != want {
			t.Fatalf("Grant%+v.String() = %q, want %q", g, got, want)
		}
	}
}
