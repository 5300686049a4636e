package devicesim

import (
	"sync"
	"testing"

	"securepki/internal/stats"
	"securepki/internal/x509lite"
)

// Building a world and advancing a device across reissue events makes every
// draw but signs nothing; the first CurrentCert signs exactly once.
func TestReissueSignsNothingUntilObserved(t *testing.T) {
	w := buildTiny(t)
	if got := w.Work(); got.CertsSigned != 0 || got.KeysDerived != 0 {
		t.Fatalf("BuildWorld signed %d certs and derived %d keys; want none before any observation",
			got.CertsSigned, got.KeysDerived)
	}
	var dev *Device
	for _, d := range w.Devices {
		if d.Profile.Name == "fritzbox" && !d.Static() && d.fleetCert == nil {
			dev = d
			break
		}
	}
	if dev == nil {
		t.Skip("no dynamic fritzbox in tiny world")
	}

	before := w.Work()
	for week := 1; week <= 8; week++ { // daily reconnects: reissues every step
		dev.AdvanceTo(dev.Birth.AddDate(0, 0, 7*week))
	}
	after := w.Work()
	if after.Reissues-before.Reissues < 8 {
		t.Errorf("8 weekly advances built %d templates; want at least one per advance", after.Reissues-before.Reissues)
	}
	if after.CertsSigned != before.CertsSigned || after.KeysDerived != before.KeysDerived {
		t.Fatalf("unobserved reissues signed %d certs and derived %d keys",
			after.CertsSigned-before.CertsSigned, after.KeysDerived-before.KeysDerived)
	}

	cert := dev.CurrentCert()
	if got := w.Work().CertsSigned - after.CertsSigned; got != 1 {
		t.Fatalf("first CurrentCert signed %d certificates, want 1", got)
	}
	if got := w.Work().KeysDerived - after.KeysDerived; got != 1 {
		t.Fatalf("first CurrentCert derived %d keys, want 1 (stable key)", got)
	}
	if dev.CurrentCert() != cert {
		t.Fatal("second CurrentCert returned a different certificate")
	}
	if got := w.Work().CertsSigned - after.CertsSigned; got != 1 {
		t.Fatalf("second CurrentCert signed again (%d signatures total)", got)
	}
	if cert.CheckSignatureFrom(cert) != nil {
		t.Error("deferred self-signed certificate does not verify under its own key")
	}
}

// Fleet members share the leader's pending certificate and its vendor key
// across sweep workers: concurrent observers materialise it once and all get
// the same *Certificate. Run under -race.
func TestFleetCertMaterialisesOnceConcurrently(t *testing.T) {
	w := buildTiny(t)
	fleets := map[*lazyCert][]*Device{}
	for _, d := range w.Devices {
		if d.fleetCert != nil {
			fleets[d.fleetCert] = append(fleets[d.fleetCert], d)
		}
	}
	var members []*Device
	for _, m := range fleets {
		if len(m) > len(members) || (len(m) == len(members) && m[0].ID < members[0].ID) {
			members = m
		}
	}
	if len(members) < 4 {
		t.Skipf("largest fleet in tiny world has %d members", len(members))
	}
	before := w.Work()

	// Half the members are swept (each by one goroutine, as the scanner
	// owns a host per worker); the rest are read concurrently through
	// CurrentCert by the remaining goroutines.
	const goroutines = 16
	swept := members[:len(members)/2]
	read := members[len(members)/2:]
	start := members[0].Birth
	end := start.AddDate(0, 0, 1)
	got := make([][]*x509lite.Certificate, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g < len(swept) {
				for _, app := range swept[g].Appearances(start, end, stats.NewRNG(uint64(g))) {
					got[g] = append(got[g], app.Chain...)
				}
				return
			}
			got[g] = append(got[g], read[g%len(read)].CurrentCert())
		}(g)
	}
	wg.Wait()

	var want *x509lite.Certificate
	for g, certs := range got {
		for _, c := range certs {
			if want == nil {
				want = c
			}
			if c != want {
				t.Fatalf("goroutine %d observed a different *Certificate than the fleet's", g)
			}
		}
	}
	if want == nil {
		t.Fatal("no goroutine observed the fleet certificate")
	}
	after := w.Work()
	if n := after.CertsSigned - before.CertsSigned; n != 1 {
		t.Errorf("%d goroutines over one fleet signed %d certificates, want 1", goroutines, n)
	}
	if n := after.Reissues - before.Reissues; n != 0 {
		t.Errorf("fleet members built %d templates; members must reuse the leader's", n)
	}
}
