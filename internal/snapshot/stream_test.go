package snapshot

import (
	"bytes"
	"testing"

	"securepki/internal/scanstore"
	"securepki/internal/x509lite"
)

// TestStreamCorpusSpillInvariant holds the disk paths to the in-memory
// ones: with the column spill threshold crushed and a budget small enough to
// spill the IP/AS sorters, every v2 and v3 file must match the bytes written
// with nothing spilled, across shard sizings that land partial and exact
// shard boundaries, with and without an AS view.
func TestStreamCorpusSpillInvariant(t *testing.T) {
	c := testCorpus(t, 300, 9, 500)
	opts := []Options{
		{ASOf: testASOf},
		{ASOf: testASOf, CertsPerShard: 64, ScansPerShard: 2},
		{CertsPerShard: 300, ScansPerShard: 9}, // exact boundaries, no AS view
		{CertsPerShard: 1, ScansPerShard: 1},
	}
	encode := func(opt Options, v3 bool, budget int64) []byte {
		var buf bytes.Buffer
		cfg := StreamWriterConfig{SpillDir: t.TempDir(), MemBudget: budget, V3: v3}
		if err := StreamCorpus(&buf, c, opt, cfg); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := make([][2][]byte, len(opts))
	for i, opt := range opts {
		want[i] = [2][]byte{encode(opt, false, 0), encode(opt, true, 0)}
	}

	old := colSpillThreshold
	colSpillThreshold = 64
	defer func() { colSpillThreshold = old }()
	for i, opt := range opts {
		for j, v3 := range []bool{false, true} {
			if got := encode(opt, v3, 1<<12); !bytes.Equal(want[i][j], got) {
				t.Fatalf("CertsPerShard=%d ScansPerShard=%d v3=%v: spilled encode differs (%d vs %d bytes)",
					opt.CertsPerShard, opt.ScansPerShard, v3, len(want[i][j]), len(got))
			}
		}
		// The output must actually parse.
		if _, err := ReadV3Layout(bytes.NewReader(want[i][1]), int64(len(want[i][1]))); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStreamWriterEmpty pins the degenerate corpus: no certs, no scans, in
// both formats, round-tripping to an empty corpus.
func TestStreamWriterEmpty(t *testing.T) {
	for _, v3 := range []bool{false, true} {
		var buf bytes.Buffer
		if err := StreamCorpus(&buf, scanstore.NewCorpus(), Options{}, StreamWriterConfig{SpillDir: t.TempDir(), V3: v3}); err != nil {
			t.Fatal(err)
		}
		got, err := Read(bytes.NewReader(buf.Bytes()), Options{})
		if err != nil {
			t.Fatalf("v3=%v: %v", v3, err)
		}
		if got.NumCerts() != 0 || got.NumScans() != 0 {
			t.Fatalf("v3=%v: want empty corpus, got %d certs, %d scans", v3, got.NumCerts(), got.NumScans())
		}
	}
}

// TestStreamWriterEachCert checks DER retention: every interned certificate
// replays in ID order with its exact bytes and digests.
func TestStreamWriterEachCert(t *testing.T) {
	c := testCorpus(t, 40, 2, 50)
	sw, err := NewStreamWriter(Options{}, StreamWriterConfig{SpillDir: t.TempDir(), KeepDERs: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()
	for i := 0; i < c.NumCerts(); i++ {
		cert := c.Cert(scanstore.CertID(i)).Cert
		if _, _, err := sw.Intern(cert.Raw, cert.Fingerprint(), cert.PublicKeyFingerprint()); err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	err = sw.EachCert(func(id scanstore.CertID, fp, spki x509lite.Fingerprint, der []byte) error {
		cert := c.Cert(id).Cert
		if int(id) != next {
			t.Fatalf("EachCert out of order: got %d, want %d", id, next)
		}
		next++
		if !bytes.Equal(der, cert.Raw) || fp != cert.Fingerprint() || spki != cert.PublicKeyFingerprint() {
			t.Fatalf("EachCert %d: payload mismatch", id)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if next != c.NumCerts() {
		t.Fatalf("EachCert visited %d of %d certs", next, c.NumCerts())
	}
}

// TestStreamWriterInternDedups pins the dedup contract: re-interning a
// fingerprint returns the original ID without growing the table.
func TestStreamWriterInternDedups(t *testing.T) {
	c := testCorpus(t, 3, 1, 3)
	sw, err := NewStreamWriter(Options{}, StreamWriterConfig{SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()
	cert := c.Cert(0).Cert
	id0, fresh, err := sw.Intern(cert.Raw, cert.Fingerprint(), cert.PublicKeyFingerprint())
	if err != nil || !fresh {
		t.Fatalf("first intern: id=%d fresh=%v err=%v", id0, fresh, err)
	}
	id1, fresh, err := sw.Intern(cert.Raw, cert.Fingerprint(), cert.PublicKeyFingerprint())
	if err != nil || fresh || id1 != id0 {
		t.Fatalf("re-intern: id=%d fresh=%v err=%v", id1, fresh, err)
	}
	if sw.NumCerts() != 1 {
		t.Fatalf("NumCerts %d after dedup", sw.NumCerts())
	}
}
