// Package membrane implements the paper's "PD membrane" — the first
// demonstration of the active data concept (Idea 1, §2).
//
// Every piece of personal data (PD) stored in DBFS is wrapped by a membrane:
// metadata that the data itself carries and that rgpdOS consults on every
// access. The membrane records the PD's origin, the consent granted to each
// processing purpose, a time to live (the GDPR's storage-limitation
// principle and the lever for the right to be forgotten), a sensitivity
// level (sensitive data must be stored separately, §2), and the collection
// interface used to (re)acquire the data. Consents are expressed per purpose
// as all / none / a named view, mirroring Listing 1's consent block.
//
// Decisions are deny-by-default: a purpose with no recorded consent gets
// GrantNone. Erasure and Art. 18 restriction override everything.
package membrane

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"time"
)

// Origin says where a PD entered the system from (traceability, §2).
type Origin int

// Origins. The paper lists the subject, the sysadmin (data operator), or
// another data operator; Derived marks PD generated by a processing
// (ded_build_membrane).
const (
	OriginSubject Origin = iota + 1
	OriginSysadmin
	OriginThirdParty
	OriginDerived
)

var originNames = map[Origin]string{
	OriginSubject:    "subject",
	OriginSysadmin:   "sysadmin",
	OriginThirdParty: "third_party",
	OriginDerived:    "derived",
}

// String returns the DSL spelling of the origin.
func (o Origin) String() string {
	if s, ok := originNames[o]; ok {
		return s
	}
	return fmt.Sprintf("origin(%d)", int(o))
}

// ParseOrigin maps a DSL spelling to an Origin.
func ParseOrigin(s string) (Origin, error) {
	for o, name := range originNames {
		if name == s {
			return o, nil
		}
	}
	return 0, fmt.Errorf("membrane: unknown origin %q", s)
}

// Sensitivity is the storage-separation level required by the GDPR for
// special categories of data (§2: a social security number vs a name).
type Sensitivity int

// Sensitivity levels.
const (
	SensitivityLow Sensitivity = iota + 1
	SensitivityMedium
	SensitivityHigh
)

// String returns the DSL spelling.
func (s Sensitivity) String() string {
	switch s {
	case SensitivityLow:
		return "low"
	case SensitivityMedium:
		return "medium"
	case SensitivityHigh:
		return "high"
	default:
		return fmt.Sprintf("sensitivity(%d)", int(s))
	}
}

// ParseSensitivity maps a DSL spelling to a Sensitivity. The paper's
// Listing 1 spells it "hight"; we accept that verbatim.
func ParseSensitivity(s string) (Sensitivity, error) {
	switch s {
	case "low":
		return SensitivityLow, nil
	case "medium":
		return SensitivityMedium, nil
	case "high", "hight": // "hight" appears in the paper's Listing 1
		return SensitivityHigh, nil
	default:
		return 0, fmt.Errorf("membrane: unknown sensitivity %q", s)
	}
}

// GrantKind classifies a consent decision.
type GrantKind int

// Grant kinds: no access, full access, or access through a named view
// (the paper's data-minimization mechanism).
const (
	GrantNone GrantKind = iota + 1
	GrantAll
	GrantView
)

// Grant is the consent recorded for one purpose.
type Grant struct {
	Kind GrantKind `json:"kind"`
	// View names the permitted view when Kind is GrantView.
	View string `json:"view,omitempty"`
}

// Allows reports whether the grant permits any access at all.
func (g Grant) Allows() bool { return g.Kind == GrantAll || g.Kind == GrantView }

// String renders the DSL spelling: "all", "none", or the view name.
func (g Grant) String() string {
	switch g.Kind {
	case GrantAll:
		return "all"
	case GrantView:
		return g.View
	default:
		return "none"
	}
}

// Sentinel errors.
var (
	// ErrInvalid reports a membrane failing validation.
	ErrInvalid = errors.New("membrane: invalid membrane")
	// ErrErased reports access to PD erased under the right to be
	// forgotten.
	ErrErased = errors.New("membrane: personal data has been erased")
	// ErrRestricted reports access to PD under an Art. 18 restriction.
	ErrRestricted = errors.New("membrane: processing is restricted")
	// ErrExpired reports access to PD past its time to live.
	ErrExpired = errors.New("membrane: personal data ttl expired")
	// ErrConsentDenied reports a purpose with no allowing consent.
	ErrConsentDenied = errors.New("membrane: consent denied for purpose")
)

// Membrane is the active metadata wrapped around one piece of PD. All PD in
// DBFS carries exactly one membrane (enforcement rule 3, §2).
type Membrane struct {
	// PDID identifies the wrapped PD, format "type/subject/record".
	PDID string
	// TypeName is the PD type (DBFS table) this PD belongs to.
	TypeName string
	// SubjectID identifies the data subject.
	SubjectID string

	Origin      Origin
	Sensitivity Sensitivity

	// Consents maps purpose name to the recorded grant.
	Consents map[string]Grant

	// TTL is the time to live; zero means no automatic expiry.
	TTL time.Duration
	// CreatedAt is when the PD entered the system (collection time).
	CreatedAt time.Time

	// Collection maps collection method name (e.g. "web_form") to the
	// interface reference (e.g. "user_form.html").
	Collection map[string]string

	// Version increments on every consent mutation; the cluster's copy
	// sync carries it to remote copies with the consents.
	Version uint64
	// CopyOf links a built-in copy or derived PD to its family root: the
	// record every copy and derivation ultimately came from. It is empty
	// on a root. A derived record has Origin OriginDerived; a copy keeps
	// its source's Origin.
	CopyOf string

	// Erased marks PD removed under the right to be forgotten; the
	// ciphertext is retained for the authorities under EscrowRef.
	Erased bool
	// EscrowRef names the escrow record created at erasure time.
	EscrowRef string
	// Restricted marks PD under a GDPR Art. 18 processing restriction.
	Restricted bool
}

// New returns a membrane with the mandatory identity fields set and empty
// consent/collection maps ready for population.
func New(pdid, typeName, subjectID string) *Membrane {
	return &Membrane{
		PDID:        pdid,
		TypeName:    typeName,
		SubjectID:   subjectID,
		Origin:      OriginSubject,
		Sensitivity: SensitivityLow,
		Consents:    make(map[string]Grant),
		Collection:  make(map[string]string),
	}
}

// Validate checks structural invariants: identity fields present, known
// enum values, well-formed grants.
func (m *Membrane) Validate() error {
	if m == nil {
		return fmt.Errorf("%w: nil", ErrInvalid)
	}
	if m.PDID == "" || m.TypeName == "" || m.SubjectID == "" {
		return fmt.Errorf("%w: missing identity (pdid=%q type=%q subject=%q)",
			ErrInvalid, m.PDID, m.TypeName, m.SubjectID)
	}
	if _, ok := originNames[m.Origin]; !ok {
		return fmt.Errorf("%w: bad origin %d", ErrInvalid, m.Origin)
	}
	if m.Sensitivity < SensitivityLow || m.Sensitivity > SensitivityHigh {
		return fmt.Errorf("%w: bad sensitivity %d", ErrInvalid, m.Sensitivity)
	}
	for p, g := range m.Consents {
		if p == "" {
			return fmt.Errorf("%w: empty purpose name", ErrInvalid)
		}
		switch g.Kind {
		case GrantNone, GrantAll:
			if g.View != "" {
				return fmt.Errorf("%w: grant %q carries view %q", ErrInvalid, p, g.View)
			}
		case GrantView:
			if g.View == "" {
				return fmt.Errorf("%w: view grant %q missing view name", ErrInvalid, p)
			}
		default:
			return fmt.Errorf("%w: bad grant kind %d for %q", ErrInvalid, g.Kind, p)
		}
	}
	return nil
}

// Decide is the membrane's access decision for a purpose at instant now.
// It returns the grant to apply, or an error describing why access is
// denied. This is the "black membrane" of Fig. 3: the data decides.
func (m *Membrane) Decide(purpose string, now time.Time) (Grant, error) {
	if m.Erased {
		return Grant{Kind: GrantNone}, fmt.Errorf("%w: %s", ErrErased, m.PDID)
	}
	if m.Restricted {
		return Grant{Kind: GrantNone}, fmt.Errorf("%w: %s", ErrRestricted, m.PDID)
	}
	if m.ExpiredAt(now) {
		return Grant{Kind: GrantNone}, fmt.Errorf("%w: %s", ErrExpired, m.PDID)
	}
	g, ok := m.Consents[purpose]
	if !ok || !g.Allows() {
		return Grant{Kind: GrantNone}, fmt.Errorf("%w: %s on %s", ErrConsentDenied, purpose, m.PDID)
	}
	return g, nil
}

// ExpiredAt reports whether the PD's TTL has elapsed at now.
func (m *Membrane) ExpiredAt(now time.Time) bool {
	return m.TTL > 0 && !m.CreatedAt.IsZero() && now.After(m.CreatedAt.Add(m.TTL))
}

// SetConsent records (or replaces) the grant for purpose and bumps Version.
func (m *Membrane) SetConsent(purpose string, g Grant) {
	if m.Consents == nil {
		m.Consents = make(map[string]Grant)
	}
	m.Consents[purpose] = g
	m.Version++
}

// WithdrawConsent sets the purpose's grant to none (GDPR Art. 7(3):
// withdrawal must be as easy as giving consent) and bumps Version.
func (m *Membrane) WithdrawConsent(purpose string) {
	if m.Consents == nil {
		m.Consents = make(map[string]Grant)
	}
	m.Consents[purpose] = Grant{Kind: GrantNone}
	m.Version++
}

// Clone returns a deep copy. A nil map stays nil (SetConsent and friends
// allocate on first write). DBFS clones a shared, cached membrane before it
// changes one.
func (m *Membrane) Clone() *Membrane {
	cp := *m
	if m.Consents != nil {
		cp.Consents = make(map[string]Grant, len(m.Consents))
		for k, v := range m.Consents {
			cp.Consents[k] = v
		}
	}
	if m.Collection != nil {
		cp.Collection = make(map[string]string, len(m.Collection))
		for k, v := range m.Collection {
			cp.Collection[k] = v
		}
	}
	return &cp
}

// CloneForCopy derives the membrane for a built-in copy of this PD: same
// consents and properties, new identity, CopyOf set to this PD's family
// root. The paper's copy builtin "must ensure membrane consistency across
// all copies of the same PD"; the stored CopyOf links are the family.
func (m *Membrane) CloneForCopy(newPDID string) *Membrane {
	cp := m.Clone()
	cp.PDID = newPDID
	cp.CopyOf = m.Root()
	return cp
}

// Root names the family this PD belongs to: CopyOf for a copy or derived
// record, its own PDID for an original. Copies of copies point at the
// root, so two records are in one family exactly when their roots match.
func (m *Membrane) Root() string {
	if m.CopyOf != "" {
		return m.CopyOf
	}
	return m.PDID
}

// Encode serializes the membrane in the binary layout described at
// codecVersion. Equal membranes give equal bytes: map keys are written in
// sorted order and CreatedAt as its UTC instant, so re-archiving an
// unchanged record writes the same cold-archive bytes.
func (m *Membrane) Encode() ([]byte, error) {
	created, err := m.CreatedAt.UTC().MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("membrane: encode %s: %w", m.PDID, err)
	}
	// One allocation: the version byte, CreatedAt, the two flags, four
	// varints of at most ten bytes, and two bytes for each length or count
	// prefix (five strings, two maps), which covers strings under 16 KiB.
	// append grows b past a short guess.
	size := 1 + len(created) + 2 + 4*binary.MaxVarintLen64 + 7*2 +
		len(m.PDID) + len(m.TypeName) + len(m.SubjectID) + len(m.CopyOf) + len(m.EscrowRef)
	for k, g := range m.Consents {
		size += 2 + len(k) + 1 + 2 + len(g.View)
	}
	for k, v := range m.Collection {
		size += 2 + len(k) + 2 + len(v)
	}
	b := make([]byte, 0, size)
	b = append(b, codecVersion)
	b = appendString(b, m.PDID)
	b = appendString(b, m.TypeName)
	b = appendString(b, m.SubjectID)
	b = binary.AppendVarint(b, int64(m.Origin))
	b = binary.AppendVarint(b, int64(m.Sensitivity))
	var keyBuf [8]string
	keys := sortedKeys(keyBuf[:0], m.Consents)
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		g := m.Consents[k]
		b = appendString(b, k)
		b = binary.AppendVarint(b, int64(g.Kind))
		b = appendString(b, g.View)
	}
	b = binary.AppendVarint(b, int64(m.TTL))
	b = append(b, created...)
	keys = sortedKeys(keyBuf[:0], m.Collection)
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = appendString(b, k)
		b = appendString(b, m.Collection[k])
	}
	b = binary.AppendUvarint(b, m.Version)
	b = appendString(b, m.CopyOf)
	b = appendBool(b, m.Erased)
	b = appendString(b, m.EscrowRef)
	b = appendBool(b, m.Restricted)
	return b, nil
}

// Decode deserializes a membrane and validates it. Every failure wraps
// ErrInvalid. Only the canonical encoding is accepted (minimal varints,
// strictly sorted keys, flags of 0 or 1, a UTC CreatedAt, no trailing
// bytes), so a decoded membrane re-encodes to the bytes it came from.
//
// The decoded strings are substrings of one copy of b: a decode costs one
// string allocation however many strings the membrane holds, and any of
// them keeps that copy alive.
func Decode(b []byte) (*Membrane, error) {
	d := decoder{b: b}
	if d.byte() != codecVersion {
		return nil, d.fail("unknown version")
	}
	d.s = string(b)
	m := &Membrane{
		PDID:        d.str(),
		TypeName:    d.str(),
		SubjectID:   d.str(),
		Origin:      Origin(d.varint()),
		Sensitivity: Sensitivity(d.varint()),
	}
	// A consent entry is at least a key length, a kind and a view length.
	if n := d.count(3); n > 0 {
		m.Consents = make(map[string]Grant, n)
		prev := ""
		for i := 0; i < n && d.err == nil; i++ {
			k := d.key(i, prev)
			m.Consents[k] = Grant{Kind: GrantKind(d.varint()), View: d.str()}
			prev = k
		}
	}
	m.TTL = time.Duration(d.varint())
	m.CreatedAt = d.time()
	if n := d.count(2); n > 0 {
		m.Collection = make(map[string]string, n)
		prev := ""
		for i := 0; i < n && d.err == nil; i++ {
			k := d.key(i, prev)
			m.Collection[k] = d.str()
			prev = k
		}
	}
	m.Version = d.uvarint()
	m.CopyOf = d.str()
	m.Erased = d.bool()
	m.EscrowRef = d.str()
	m.Restricted = d.bool()
	if d.err == nil && d.off != len(b) {
		d.fail("trailing bytes")
	}
	if d.err != nil {
		return nil, d.err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// codecVersion is the first byte of every encoding. The fields follow in
// declaration order: strings as a uvarint length and the bytes; Origin,
// Sensitivity, a grant's Kind and TTL as varints; Version as a uvarint;
// each map as a uvarint count and its entries in ascending key order (a
// consent entry is key, kind, view); CreatedAt as the 15 bytes of
// time.MarshalBinary of its UTC instant; Erased and Restricted as one byte,
// 0 or 1.
const codecVersion = 1

// timeLen is the length of time.MarshalBinary's form of a UTC time.
const timeLen = 15

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// sortedKeys appends mp's keys to dst in ascending order.
func sortedKeys[V any](dst []string, mp map[string]V) []string {
	for k := range mp {
		dst = append(dst, k)
	}
	slices.Sort(dst)
	return dst
}

// decoder reads one encoding front to back. After the first failure err is
// set and every read returns a zero value.
type decoder struct {
	b   []byte
	s   string // b as a string; decoded strings are substrings of it
	off int
	err error
}

func (d *decoder) fail(why string) error {
	if d.err == nil {
		d.err = fmt.Errorf("%w: decode: %s at byte %d", ErrInvalid, why, d.off)
	}
	return d.err
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.b) {
		d.fail("truncated")
		return 0
	}
	d.off++
	return d.b[d.off-1]
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	if n > 1 && d.b[d.off+n-1] == 0 {
		d.fail("non-minimal varint")
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) varint() int64 {
	u := d.uvarint()
	// Zigzag, as binary.Varint decodes it.
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

// count reads a map's entry count. Every entry takes at least min bytes,
// so a count the bytes left cannot hold is rejected before it sizes a map.
func (d *decoder) count(min int) int {
	n := d.uvarint()
	if n > uint64((len(d.b)-d.off)/min) {
		d.fail("count exceeds input")
		return 0
	}
	return int(n)
}

func (d *decoder) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)-d.off) {
		d.fail("length exceeds input")
		return ""
	}
	s := d.s[d.off : d.off+int(n)]
	d.off += int(n)
	return s
}

// key reads the i-th map key, which must sort strictly after prev.
func (d *decoder) key(i int, prev string) string {
	k := d.str()
	if i > 0 && k <= prev {
		d.fail("map keys out of order")
	}
	return k
}

func (d *decoder) bool() bool {
	switch d.byte() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("bad flag")
		return false
	}
}

// time reads CreatedAt. Only the form Encode writes is accepted: version 1,
// nanoseconds below one second and the UTC zone marker.
func (d *decoder) time() time.Time {
	if d.err != nil {
		return time.Time{}
	}
	if len(d.b)-d.off < timeLen {
		d.fail("truncated")
		return time.Time{}
	}
	raw := d.b[d.off : d.off+timeLen]
	nsec := binary.BigEndian.Uint32(raw[9:13])
	if raw[0] != 1 || nsec >= 1e9 || raw[13] != 0xff || raw[14] != 0xff {
		d.fail("non-canonical created_at")
		return time.Time{}
	}
	var t time.Time
	if err := t.UnmarshalBinary(raw); err != nil {
		d.fail("bad created_at")
		return time.Time{}
	}
	d.off += timeLen
	return t
}
