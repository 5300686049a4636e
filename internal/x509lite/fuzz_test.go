package x509lite

import (
	"crypto/ed25519"
	"math/big"
	"testing"
	"time"
)

// Native fuzz targets. `go test` exercises the seed corpus; `go test
// -fuzz=FuzzParse ./internal/x509lite` explores further.

func fuzzSeedDER(f *testing.F) {
	seed := make([]byte, ed25519.SeedSize)
	priv := ed25519.NewKeyFromSeed(seed)
	pub := priv.Public().(ed25519.PublicKey)
	for _, tmpl := range []*Template{
		{
			Version: 3, SerialNumber: big.NewInt(1),
			Subject: Name{CommonName: "seed.example"}, Issuer: Name{CommonName: "seed.example"},
			NotBefore: time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC),
			NotAfter:  time.Date(2033, 1, 1, 0, 0, 0, 0, time.UTC),
			DNSNames:  []string{"seed.example"},
		},
		{
			Version: 1, SerialNumber: big.NewInt(2),
			Subject: Name{}, Issuer: Name{CommonName: "x"},
			NotBefore: time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC),
			NotAfter:  time.Date(3001, 1, 1, 0, 0, 0, 0, time.UTC),
		},
	} {
		der, err := CreateCertificate(tmpl, pub, priv)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(der)
	}
	f.Add([]byte{})
	f.Add([]byte{0x30, 0x03, 0x02, 0x01, 0x01})
}

func FuzzParse(f *testing.F) {
	fuzzSeedDER(f)
	f.Fuzz(func(t *testing.T, der []byte) {
		cert, err := Parse(der)
		if err != nil {
			return
		}
		// Anything that parses must re-fingerprint stably and render text
		// without panicking.
		if cert.Fingerprint() != FingerprintBytes(der) {
			t.Fatal("fingerprint not over raw DER")
		}
		selfSigned := cert.SelfSigned()
		_ = cert.Text()
		if cert.SelfSigned() != selfSigned {
			t.Fatal("second SelfSigned call disagrees with the first")
		}
		_ = cert.ValidityDays()
	})
}

func FuzzParsePEM(f *testing.F) {
	f.Add([]byte("-----BEGIN CERTIFICATE-----\nAAAA\n-----END CERTIFICATE-----\n"))
	f.Add([]byte("plain text"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		certs, err := ParsePEM(data)
		if err == nil && len(certs) == 0 {
			t.Fatal("nil error with no certificates")
		}
	})
}
