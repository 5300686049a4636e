package devicesim

import (
	"crypto/ed25519"
	"fmt"
	"math/big"
	"time"

	"securepki/internal/stats"
	"securepki/internal/x509lite"
)

// CA is one issuing intermediate in the trusted hierarchy: a signing key, its
// certificate (signed by a root), and the root it chains to.
type CA struct {
	Name x509lite.Name
	Key  ed25519.PrivateKey
	Cert *x509lite.Certificate
	Root *x509lite.Certificate
}

// hierarchy is the web-PKI stand-in: roots (the trust store) and weighted
// intermediates whose popularity reproduces the paper's issuer concentration
// (5 signing keys cover half of all valid certificates).
type hierarchy struct {
	roots  []*x509lite.Certificate
	cas    []*CA
	picker *stats.WeightedPicker[*CA]
}

// Issuer names for the head of the valid-certificate issuer table, matching
// the paper's Table 1.
var namedIssuers = []string{
	"Go Daddy Secure Certification Authority",
	"RapidSSL CA",
	"PositiveSSL CA 2",
	"Go Daddy Secure Certificate Authority - G2",
	"GeoTrust DV SSL CA",
	"Comodo Class 3 DV CA",
	"Thawte SSL CA",
	"DigiSign Server CA",
	"StartCom Class 1 CA",
	"GlobalTrust Domain CA",
}

const numMinorIssuers = 22

func mustCreate(tmpl *x509lite.Template, pub ed25519.PublicKey, signer ed25519.PrivateKey) *x509lite.Certificate {
	der, err := x509lite.CreateCertificate(tmpl, pub, signer)
	if err != nil {
		panic(fmt.Sprintf("devicesim: internal certificate build failed: %v", err))
	}
	cert, err := x509lite.Parse(der)
	if err != nil {
		panic(fmt.Sprintf("devicesim: internal certificate reparse failed: %v", err))
	}
	return cert
}

// buildHierarchy creates roots and intermediates. Intermediate popularity is
// Zipf-distributed with the named issuers at the head.
func buildHierarchy(r *stats.RNG, epoch time.Time) *hierarchy {
	h := &hierarchy{}
	const numRoots = 12
	rootKeys := make([]ed25519.PrivateKey, numRoots)
	for i := 0; i < numRoots; i++ {
		priv := keyFromRNG(r).private(nil)
		pub := priv.Public().(ed25519.PublicKey)
		rootKeys[i] = priv
		name := x509lite.Name{
			Country:      "US",
			Organization: fmt.Sprintf("Root Trust %d", i),
			CommonName:   fmt.Sprintf("Global Root CA %d", i),
		}
		cert := mustCreate(&x509lite.Template{
			Version:      3,
			SerialNumber: big.NewInt(int64(1000 + i)),
			Subject:      name,
			Issuer:       name,
			NotBefore:    epoch.AddDate(-12, 0, 0),
			NotAfter:     epoch.AddDate(25, 0, 0),
			IsCA:         true, IncludeBasicConstraints: true,
		}, pub, priv)
		h.roots = append(h.roots, cert)
	}

	issuerNames := append([]string(nil), namedIssuers...)
	for i := 0; i < numMinorIssuers; i++ {
		issuerNames = append(issuerNames, fmt.Sprintf("Regional SSL CA %02d", i))
	}
	choices := make([]stats.WeightedChoice[*CA], 0, len(issuerNames))
	for i, name := range issuerNames {
		priv := keyFromRNG(r).private(nil)
		pub := priv.Public().(ed25519.PublicKey)
		rootIdx := i % numRoots
		subject := x509lite.Name{Organization: "Certification Services", CommonName: name}
		cert := mustCreate(&x509lite.Template{
			Version:      3,
			SerialNumber: big.NewInt(int64(5000 + i)),
			Subject:      subject,
			Issuer:       h.roots[rootIdx].Subject,
			NotBefore:    epoch.AddDate(-6, 0, 0),
			NotAfter:     epoch.AddDate(15, 0, 0),
			IsCA:         true, IncludeBasicConstraints: true,
			SubjectKeyID: []byte{byte(i), 0x5a},
		}, pub, rootKeys[rootIdx])
		ca := &CA{Name: subject, Key: priv, Cert: cert, Root: h.roots[rootIdx]}
		h.cas = append(h.cas, ca)
		// Zipf weights: rank-1 issuer dominates, top-5 span ~half of
		// issuance, like the paper's valid-cert issuer table.
		choices = append(choices, stats.WeightedChoice[*CA]{Item: ca, Weight: 1 / float64(i+1)})
	}
	h.picker = stats.NewWeightedPicker(choices)
	return h
}

// Roots returns the trust store contents.
func (h *hierarchy) Roots() []*x509lite.Certificate { return h.roots }

// Pick draws an issuing CA with popularity weighting.
func (h *hierarchy) Pick(r *stats.RNG) *CA { return h.picker.Pick(r) }
