package devicesim

import (
	"crypto/ed25519"
	"fmt"
	"sync"
	"sync/atomic"

	"securepki/internal/stats"
	"securepki/internal/x509lite"
)

// Hosts regenerate certificates far more often than periodic scans see them
// (the paper's core finding, and what daily-reissuing profiles reproduce),
// so the population defers its expensive deterministic work — Ed25519 key
// derivation, signing, re-parsing and frankencert rewriting — until a
// certificate is first observed. Every random draw stays eager: seeds and
// template fields are drawn exactly where an eager build would draw them,
// and Ed25519 is deterministic, so a deferred certificate is byte-identical
// to the one an eager build signs at reissue time.

// lazyKey is an Ed25519 key whose 32 seed bytes are already drawn but whose
// derivation (ed25519.NewKeyFromSeed) waits for first use. Keys are shared
// across sweep workers — fleet members serve the leader's certificate and
// vendor-shared profiles one firmware key — so derivation runs once, under a
// sync.Once.
type lazyKey struct {
	seed [ed25519.SeedSize]byte
	once sync.Once
	priv ed25519.PrivateKey
}

// keyFromRNG draws a key's seed from r; nothing is derived yet.
func keyFromRNG(r *stats.RNG) *lazyKey {
	k := &lazyKey{}
	for i := 0; i < len(k.seed); i += 8 {
		v := r.Uint64()
		for j := 0; j < 8 && i+j < len(k.seed); j++ {
			k.seed[i+j] = byte(v >> (8 * j))
		}
	}
	return k
}

// private derives the key on first use, counting the derivation in derived
// when it is non-nil.
func (k *lazyKey) private(derived *atomic.Int64) ed25519.PrivateKey {
	k.once.Do(func() {
		k.priv = ed25519.NewKeyFromSeed(k.seed[:])
		if derived != nil {
			derived.Add(1)
		}
	})
	return k.priv
}

// workCounters count a world's host-certificate work: templates built at
// reissue, certificates signed, host keys derived. Atomic because sweep
// workers materialise certificates concurrently; per world, not global, so
// parallel tests do not share them.
type workCounters struct {
	reissues, certsSigned, keysDerived atomic.Int64
}

// Work is a snapshot of a world's host-certificate work counts.
type Work struct {
	// Reissues counts certificate templates built (birth and reissue
	// events; fleet members reusing the leader's certificate build none).
	Reissues int64
	// CertsSigned counts templates signed into certificates: those some
	// caller observed. Reissues - CertsSigned were never needed.
	CertsSigned int64
	// KeysDerived counts device and site keys derived from their seeds.
	KeysDerived int64
}

// Work reports the host-certificate work the world has done so far. PKI and
// vendor CA material is built eagerly and not counted.
func (w *World) Work() Work {
	return Work{
		Reissues:    w.work.reissues.Load(),
		CertsSigned: w.work.certsSigned.Load(),
		KeysDerived: w.work.keysDerived.Load(),
	}
}

// lazyCert is a host certificate whose template is final — every draw made —
// but which is signed only when first needed. Fleet members share the
// leader's lazyCert across sweep workers, so it materialises under a
// sync.Once and every caller gets the same *x509lite.Certificate.
type lazyCert struct {
	once  sync.Once
	w     *World
	tmpl  *x509lite.Template
	key   *lazyKey           // subject key; also the signer when caKey is nil
	caKey ed25519.PrivateKey // issuing CA key (vendor or web CA); nil if self-signed
	host  int                // device ID the mutator is keyed on; -1 never mutates
	cert  *x509lite.Certificate
}

// newLazyCert records a reissue: tmpl is complete, signing waits for get.
func (w *World) newLazyCert(tmpl *x509lite.Template, key *lazyKey, caKey ed25519.PrivateKey, host int) *lazyCert {
	w.work.reissues.Add(1)
	return &lazyCert{w: w, tmpl: tmpl, key: key, caKey: caKey, host: host}
}

// get signs the certificate on first call and returns it.
func (c *lazyCert) get() *x509lite.Certificate {
	c.once.Do(c.materialise)
	return c.cert
}

func (c *lazyCert) materialise() {
	w := c.w
	priv := c.key.private(&w.work.keysDerived)
	signer := c.caKey
	if signer == nil {
		signer = priv
	}
	cert := mustCreate(c.tmpl, ed25519.PublicKey(priv[ed25519.SeedSize:]), signer)
	w.work.certsSigned.Add(1)

	// Frankencert injection: mutation is keyed by device ID, so the decision
	// and the operator survive reissues, and fleet members inherit the
	// leader's mutated cert by sharing its lazyCert.
	if m := w.mutator; m != nil && c.host >= 0 {
		mutated, err := m.Rewrite(c.host, cert)
		if err != nil {
			// Population-class operators guarantee parseability over any
			// x509lite-built certificate; failing here is a mutator bug.
			panic(fmt.Sprintf("devicesim: %v", err))
		}
		cert = mutated
	}
	c.cert = cert
	c.tmpl, c.key, c.caKey = nil, nil, nil
}
