package x509lite

import (
	"sync"
	"testing"
)

// SelfSigned's memo must give the answer the uncached check gives, for every
// way a self-signature can hold or fail.
func TestSelfSignedMatchesCheck(t *testing.T) {
	pub, priv := testKey(t, 20)
	self := func() *Certificate { return mustCreate(t, baseTemplate(), pub, priv) }

	caPub, caPriv := testKey(t, 21)
	leafPub, _ := testKey(t, 22)
	corrupt := baseTemplate()
	corrupt.CorruptSignature = true

	cases := []struct {
		name string
		cert func() *Certificate
		want bool
	}{
		{"self-signed", self, true},
		{"ca-signed-leaf", func() *Certificate {
			tmpl := baseTemplate()
			tmpl.Issuer = Name{CommonName: "ca.example"}
			return mustCreate(t, tmpl, leafPub, caPriv)
		}, false},
		{"corrupt-signature", func() *Certificate { return mustCreate(t, corrupt, caPub, caPriv) }, false},
		{"short-key", func() *Certificate {
			c := self()
			return &Certificate{RawTBS: c.RawTBS, PublicKey: c.PublicKey[:len(c.PublicKey)-1], Signature: c.Signature}
		}, false},
		{"short-signature", func() *Certificate {
			c := self()
			return &Certificate{RawTBS: c.RawTBS, PublicKey: c.PublicKey, Signature: c.Signature[:len(c.Signature)-1]}
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.cert()
			check := c.CheckSignatureFrom(c) == nil
			if check != tc.want {
				t.Fatalf("CheckSignatureFrom(self) = %v, want %v", check, tc.want)
			}
			for call := 1; call <= 2; call++ {
				if got := c.SelfSigned(); got != check {
					t.Errorf("SelfSigned call %d = %v, CheckSignatureFrom(self) says %v", call, got, check)
				}
			}
		})
	}
}

// After the first call SelfSigned answers from the memo: corrupting the
// signature afterwards changes the uncached check but not SelfSigned. This
// pins the immutable-after-parse contract the memo relies on.
func TestSelfSignedMemoized(t *testing.T) {
	pub, priv := testKey(t, 23)
	c := mustCreate(t, baseTemplate(), pub, priv)
	if !c.SelfSigned() {
		t.Fatal("self-signed certificate does not verify")
	}
	c.Signature[0] ^= 0xff
	defer func() { c.Signature[0] ^= 0xff }()
	if c.CheckSignatureFrom(c) == nil {
		t.Fatal("corrupted signature still verifies")
	}
	if !c.SelfSigned() {
		t.Error("SelfSigned re-verified instead of answering from its memo")
	}
}

// Concurrent first calls on one cold certificate must all agree; run under
// -race to check the memo's synchronisation.
func TestSelfSignedConcurrent(t *testing.T) {
	pub, priv := testKey(t, 24)
	c := mustCreate(t, baseTemplate(), pub, priv)
	const goroutines = 16
	got := make([]bool, goroutines)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = c.SelfSigned()
		}()
	}
	wg.Wait()
	for g, ok := range got {
		if !ok {
			t.Errorf("goroutine %d: SelfSigned = false on a self-signed certificate", g)
		}
	}
}
