// Package cryptoshred implements crypto-erasure with authority escrow — the
// paper's §4 model for the right to be forgotten.
//
// Every piece of personal data is encrypted at rest under its own AES-256-GCM
// data key held in the Vault. Because only ciphertext ever reaches the inode
// layer, journal images and free-space residues are unreadable without the
// key. Erasure ("shredding") wraps the data key under the authorities' RSA
// public key and destroys the operator's copy: "the data operator will not
// be able to access the data anymore, but the authorities will be able to
// decrypt it using their private key" — the model lets data survive for
// legal investigations while being gone for every operational purpose.
package cryptoshred

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Sentinel errors.
var (
	// ErrKeyDestroyed reports use of a pdid whose key was shredded.
	ErrKeyDestroyed = errors.New("cryptoshred: data key destroyed")
	// ErrNoKey reports decryption for a pdid that never had a key.
	ErrNoKey = errors.New("cryptoshred: no data key")
	// ErrCiphertext reports malformed or tampered ciphertext.
	ErrCiphertext = errors.New("cryptoshred: invalid ciphertext")
	// ErrNoEscrow reports a recovery attempt without an escrow record.
	ErrNoEscrow = errors.New("cryptoshred: no escrow record")
)

// keySize is the AES-256 key length.
const keySize = 32

// EscrowRecord is the artifact produced by Shred: the data key wrapped
// under the authorities' public key. The operator stores it but cannot open
// it.
type EscrowRecord struct {
	// Ref names this record (referenced by the membrane's EscrowRef).
	Ref string
	// PDID identifies the shredded personal data.
	PDID string
	// WrappedKey is the RSA-OAEP encryption of the AES data key.
	WrappedKey []byte
}

// Authority models the public authority of the paper's erasure scheme. It
// generates the escrow keypair and is the only party able to unwrap escrowed
// keys. In a real deployment the private key never touches the operator's
// machine; here both live in the same process but in different types, and
// the Vault only ever sees the public half.
type Authority struct {
	priv *rsa.PrivateKey
}

// NewAuthority generates an authority with an RSA key of the given size.
// Use 2048 for realistic deployments; tests may pass 1024 for speed.
func NewAuthority(bits int) (*Authority, error) {
	if bits < 1024 {
		return nil, fmt.Errorf("cryptoshred: authority key too small (%d bits)", bits)
	}
	priv, err := rsa.GenerateKey(rand.Reader, bits)
	if err != nil {
		return nil, fmt.Errorf("cryptoshred: generate authority key: %w", err)
	}
	return &Authority{priv: priv}, nil
}

// PublicKey returns the half of the escrow keypair given to data operators.
func (a *Authority) PublicKey() *rsa.PublicKey { return &a.priv.PublicKey }

// Recover unwraps the escrowed data key and decrypts ciphertext — the legal
// investigation path. Only the Authority can do this.
func (a *Authority) Recover(rec EscrowRecord, ciphertext []byte) ([]byte, error) {
	key, err := rsa.DecryptOAEP(sha256.New(), rand.Reader, a.priv, rec.WrappedKey, []byte(rec.PDID))
	if err != nil {
		return nil, fmt.Errorf("cryptoshred: unwrap escrowed key for %s: %w", rec.PDID, err)
	}
	return decrypt(key, rec.PDID, ciphertext)
}

// Vault holds per-PD data keys on the operator side. It is safe for
// concurrent use.
type Vault struct {
	authorityPub *rsa.PublicKey

	// randMu guards randr, the entropy source for key material and
	// nonces. Default crypto/rand.Reader; see SetRand.
	randMu sync.Mutex
	randr  io.Reader

	mu        sync.Mutex
	keys      map[string][]byte
	destroyed map[string]bool
	escrows   map[string]EscrowRecord
	escrowSeq uint64
}

// NewVault returns a vault that escrows to the given authority public key.
func NewVault(authorityPub *rsa.PublicKey) *Vault {
	return &Vault{
		authorityPub: authorityPub,
		randr:        rand.Reader,
		keys:         make(map[string][]byte),
		destroyed:    make(map[string]bool),
		escrows:      make(map[string]EscrowRecord),
	}
}

// SetRand replaces the vault's entropy source. ONLY for deterministic
// simulation (the SC7 golden test needs byte-identical ciphertext across
// runs to assert byte-identical archive output); production vaults keep
// the crypto/rand default. Set before concurrent use, or leave alone.
func (v *Vault) SetRand(r io.Reader) {
	if r == nil {
		r = rand.Reader
	}
	v.randMu.Lock()
	v.randr = r
	v.randMu.Unlock()
}

// readRand fills p from the configured entropy source.
func (v *Vault) readRand(p []byte) error {
	v.randMu.Lock()
	defer v.randMu.Unlock()
	_, err := io.ReadFull(v.randr, p)
	return err
}

// keyFor returns (creating on first use) the data key for pdid.
func (v *Vault) keyFor(pdid string) ([]byte, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.destroyed[pdid] {
		return nil, fmt.Errorf("%w: %s", ErrKeyDestroyed, pdid)
	}
	if k, ok := v.keys[pdid]; ok {
		return k, nil
	}
	k := make([]byte, keySize)
	if err := v.readRand(k); err != nil {
		return nil, fmt.Errorf("cryptoshred: generate data key: %w", err)
	}
	v.keys[pdid] = k
	return k, nil
}

// Seal encrypts plaintext under pdid's data key (AES-256-GCM, random nonce,
// pdid as additional authenticated data). The first Seal for a pdid mints
// its key.
func (v *Vault) Seal(pdid string, plaintext []byte) ([]byte, error) {
	key, err := v.keyFor(pdid)
	if err != nil {
		return nil, err
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("cryptoshred: cipher: %w", err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("cryptoshred: gcm: %w", err)
	}
	nonce := make([]byte, gcm.NonceSize())
	if err := v.readRand(nonce); err != nil {
		return nil, fmt.Errorf("cryptoshred: nonce: %w", err)
	}
	out := gcm.Seal(nonce, nonce, plaintext, []byte(pdid))
	return out, nil
}

// Open decrypts ciphertext sealed for pdid. After Shred it fails with
// ErrKeyDestroyed: the operator can no longer read the data.
func (v *Vault) Open(pdid string, ciphertext []byte) ([]byte, error) {
	v.mu.Lock()
	if v.destroyed[pdid] {
		v.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrKeyDestroyed, pdid)
	}
	key, ok := v.keys[pdid]
	v.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoKey, pdid)
	}
	return decrypt(key, pdid, ciphertext)
}

func decrypt(key []byte, pdid string, ciphertext []byte) ([]byte, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("cryptoshred: cipher: %w", err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("cryptoshred: gcm: %w", err)
	}
	if len(ciphertext) < gcm.NonceSize() {
		return nil, fmt.Errorf("%w: too short", ErrCiphertext)
	}
	nonce, body := ciphertext[:gcm.NonceSize()], ciphertext[gcm.NonceSize():]
	pt, err := gcm.Open(nil, nonce, body, []byte(pdid))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCiphertext, err)
	}
	return pt, nil
}

// HasKey reports whether pdid currently has a live data key.
func (v *Vault) HasKey(pdid string) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	_, ok := v.keys[pdid]
	return ok
}

// Destroyed reports whether pdid's key was shredded.
func (v *Vault) Destroyed(pdid string) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.destroyed[pdid]
}

// Shred implements the erasure step: the data key is wrapped under the
// authority public key, recorded as an escrow record, and destroyed on the
// operator side. Shredding an unknown or already-shredded pdid returns
// ErrNoKey / ErrKeyDestroyed.
func (v *Vault) Shred(pdid string) (EscrowRecord, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.destroyed[pdid] {
		return EscrowRecord{}, fmt.Errorf("%w: %s", ErrKeyDestroyed, pdid)
	}
	key, ok := v.keys[pdid]
	if !ok {
		return EscrowRecord{}, fmt.Errorf("%w: %s", ErrNoKey, pdid)
	}
	wrapped, err := rsa.EncryptOAEP(sha256.New(), rand.Reader, v.authorityPub, key, []byte(pdid))
	if err != nil {
		return EscrowRecord{}, fmt.Errorf("cryptoshred: wrap key for escrow: %w", err)
	}
	v.escrowSeq++
	rec := EscrowRecord{
		Ref:        fmt.Sprintf("escrow-%d", v.escrowSeq),
		PDID:       pdid,
		WrappedKey: wrapped,
	}
	v.escrows[rec.Ref] = rec
	// Destroy the operator's key: overwrite then delete.
	for i := range key {
		key[i] = 0
	}
	delete(v.keys, pdid)
	v.destroyed[pdid] = true
	return rec, nil
}

// Escrow returns the stored escrow record by ref.
func (v *Vault) Escrow(ref string) (EscrowRecord, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	rec, ok := v.escrows[ref]
	if !ok {
		return EscrowRecord{}, fmt.Errorf("%w: %s", ErrNoEscrow, ref)
	}
	return rec, nil
}

// LiveKeys reports how many data keys are currently held.
func (v *Vault) LiveKeys() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.keys)
}
