package scanstore

import (
	"crypto/ed25519"
	"fmt"
	"math/big"
	"reflect"
	"testing"

	"securepki/internal/netsim"
	"securepki/internal/truststore"
	"securepki/internal/x509lite"
)

// signer carries the issuing identity for makeCAPair.
type signer struct {
	name string
	priv ed25519.PrivateKey
}

// makeCAPair creates a CA-flagged certificate, self-signed when parent is
// nil, otherwise signed by the parent.
func makeCAPair(t testing.TB, seed byte, name string, parent *signer) (*x509lite.Certificate, ed25519.PrivateKey) {
	t.Helper()
	s := make([]byte, ed25519.SeedSize)
	s[0] = seed
	priv := ed25519.NewKeyFromSeed(s)
	pub := priv.Public().(ed25519.PublicKey)
	issuer, signKey := name, priv
	if parent != nil {
		issuer, signKey = parent.name, parent.priv
	}
	der, err := x509lite.CreateCertificate(&x509lite.Template{
		Version: 3, SerialNumber: big.NewInt(int64(seed)),
		Subject: x509lite.Name{CommonName: name}, Issuer: x509lite.Name{CommonName: issuer},
		NotBefore: day(0), NotAfter: day(4000),
		IsCA: true, IncludeBasicConstraints: true,
	}, pub, signKey)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := x509lite.Parse(der)
	if err != nil {
		t.Fatal(err)
	}
	return cert, priv
}

// buildSyntheticCorpus makes a corpus with enough structure to exercise the
// parallel paths: many certs, many scans, duplicate sightings, unseen certs.
func buildSyntheticCorpus(t testing.TB) *Corpus {
	t.Helper()
	c := NewCorpus()
	ids := make([]CertID, 60)
	for i := range ids {
		ids[i] = c.Intern(makeCert(t, fmt.Sprintf("par-%d.example", i), byte(100+i)))
	}
	c.Intern(makeCert(t, "never-seen.example", 99)) // no sightings
	for s := 0; s < 25; s++ {
		var obs []Observation
		for i, id := range ids {
			if (i+s)%3 == 0 {
				continue // not every cert in every scan
			}
			obs = append(obs, Observation{Cert: id, IP: netsim.MakeIP(10, byte(s), byte(i), 1)})
			if i%7 == 0 { // duplicate sighting, second IP
				obs = append(obs, Observation{Cert: id, IP: netsim.MakeIP(10, byte(s), byte(i), 2)})
			}
			if i%11 == 0 { // exact duplicate sighting
				obs = append(obs, Observation{Cert: id, IP: netsim.MakeIP(10, byte(s), byte(i), 1)})
			}
		}
		if _, err := c.AddScan(UMich, day(s*3), obs); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// naiveIndex is the reference inversion: one append per sighting onto its
// certificate's list, scans in order.
func naiveIndex(c *Corpus) *Index {
	idx := &Index{corpus: c, sightings: make([][]Sighting, c.NumCerts())}
	for _, scan := range c.Scans() {
		for _, obs := range scan.Obs {
			idx.sightings[obs.Cert] = append(idx.sightings[obs.Cert], Sighting{Scan: scan.ID, IP: obs.IP})
		}
	}
	idx.precompute(1)
	return idx
}

// indexEqual fails unless every accessor of the two indexes agrees on every
// certificate.
func indexEqual(t *testing.T, c *Corpus, want, got *Index, label string) {
	t.Helper()
	for id := 0; id < c.NumCerts(); id++ {
		cid := CertID(id)
		if !reflect.DeepEqual(want.Sightings(cid), got.Sightings(cid)) {
			t.Fatalf("%s cert %d: sightings differ\nwant %v\ngot  %v", label, id, want.Sightings(cid), got.Sightings(cid))
		}
		if !reflect.DeepEqual(want.ScansSeen(cid), got.ScansSeen(cid)) {
			t.Fatalf("%s cert %d: ScansSeen differ", label, id)
		}
		for _, scan := range want.ScansSeen(cid) {
			if !reflect.DeepEqual(want.IPsInScan(cid, scan), got.IPsInScan(cid, scan)) {
				t.Fatalf("%s cert %d scan %d: IPsInScan differ", label, id, scan)
			}
		}
		if want.AvgIPsPerScan(cid) != got.AvgIPsPerScan(cid) {
			t.Fatalf("%s cert %d: AvgIPsPerScan differ", label, id)
		}
		if want.MaxIPsInAnyScan(cid) != got.MaxIPsInAnyScan(cid) {
			t.Fatalf("%s cert %d: MaxIPsInAnyScan differ", label, id)
		}
	}
}

// The counting-sort index must equal the naive inversion on every accessor
// at every worker count.
func TestBuildIndexMatchesNaiveInversion(t *testing.T) {
	c := buildSyntheticCorpus(t)
	want := naiveIndex(c)
	for _, workers := range []int{1, 2, 3, 8, 0} {
		indexEqual(t, c, want, c.BuildIndexWorkers(workers), fmt.Sprintf("workers=%d", workers))
	}
}

// TestBuildIndexEmpty pins the empty corpus: no certs, no scans.
func TestBuildIndexEmpty(t *testing.T) {
	if idx := NewCorpus().BuildIndex(); idx == nil {
		t.Fatal("nil index for empty corpus")
	}
}

// Every certificate's sightings share one flat array, so each list must be
// capacity-capped: appending to one may not overwrite its neighbour.
func TestBuildIndexSightingsDoNotAlias(t *testing.T) {
	c := buildSyntheticCorpus(t)
	idx := c.BuildIndex()
	for id := 0; id+1 < c.NumCerts(); id++ {
		cur, next := idx.Sightings(CertID(id)), idx.Sightings(CertID(id+1))
		if len(cur) == 0 || len(next) == 0 {
			continue
		}
		before := next[0]
		_ = append(cur, Sighting{Scan: -1, IP: 0})
		if got := idx.Sightings(CertID(id + 1))[0]; got != before {
			t.Fatalf("append to cert %d's sightings overwrote cert %d's: %v -> %v", id, id+1, before, got)
		}
	}
}

// Parallel validation must agree with serial validation on both the counts
// map and every per-certificate status.
func TestValidateSerialParallelEquivalence(t *testing.T) {
	build := func() (*Corpus, *truststore.Store) {
		c := buildSyntheticCorpus(t)
		return c, truststore.NewStore()
	}
	cSerial, sSerial := build()
	wantCounts := cSerial.ValidateWorkers(sSerial, 1)
	wantStatus := make([]truststore.Status, cSerial.NumCerts())
	for i := range wantStatus {
		wantStatus[i] = cSerial.Cert(CertID(i)).Status
	}
	for _, workers := range []int{2, 5, 0} {
		cPar, sPar := build()
		gotCounts := cPar.ValidateWorkers(sPar, workers)
		if !reflect.DeepEqual(wantCounts, gotCounts) {
			t.Fatalf("workers=%d: counts %v, want %v", workers, gotCounts, wantCounts)
		}
		for i := range wantStatus {
			if got := cPar.Cert(CertID(i)).Status; got != wantStatus[i] {
				t.Fatalf("workers=%d cert %d: status %v, want %v", workers, i, got, wantStatus[i])
			}
		}
	}
}

// Regression: Validate must be re-entrant. A second call re-classifies
// identically and must not grow the store's intermediate pool (every CA cert
// is pooled on each call; AddIntermediate dedupes by fingerprint).
func TestValidateReentrant(t *testing.T) {
	// Root → intermediate → leaf, with the intermediate interned so Validate
	// pools it (the §4.2 transvalid path), plus self-signed leaves.
	root, rootPriv := makeCAPair(t, 0xd0, "Reentrant Root", nil)
	inter, _ := makeCAPair(t, 0xd1, "Reentrant Inter", &signer{name: "Reentrant Root", priv: rootPriv})

	c := NewCorpus()
	c.Intern(inter)
	for i := 0; i < 5; i++ {
		c.Intern(makeCert(t, fmt.Sprintf("reentrant-%d", i), byte(210+i)))
	}

	store := truststore.NewStore()
	store.AddRoot(root)
	first := c.Validate(store)
	inters := store.NumIntermediates()
	if inters != 1 {
		t.Fatalf("expected the CA cert pooled once, got %d intermediates", inters)
	}
	statuses := make([]truststore.Status, c.NumCerts())
	for i := range statuses {
		statuses[i] = c.Cert(CertID(i)).Status
	}
	for round := 0; round < 2; round++ {
		again := c.Validate(store)
		if !reflect.DeepEqual(first, again) {
			t.Errorf("re-validation changed counts: %v then %v", first, again)
		}
		if got := store.NumIntermediates(); got != inters {
			t.Errorf("re-validation grew the intermediate pool: %d -> %d", inters, got)
		}
		for i := range statuses {
			if got := c.Cert(CertID(i)).Status; got != statuses[i] {
				t.Errorf("re-validation changed cert %d status: %v -> %v", i, statuses[i], got)
			}
		}
	}
}
