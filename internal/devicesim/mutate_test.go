package devicesim

import (
	"bytes"
	"testing"

	"securepki/internal/certmutate"
	"securepki/internal/x509lite"
)

// TestMutatedWorldChunkInvariant is the tentpole determinism claim at the
// population layer: a mutated world is bit-identical whether built in memory
// or streamed at any batch size.
func TestMutatedWorldChunkInvariant(t *testing.T) {
	cfg := smallCfg()
	cfg.MutateFrac = 0.3
	ref, err := BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprintHosts(t, ref.Hosts())

	for _, batch := range []int{1, 64, 1 << 20} {
		gen, err := NewGenerator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var hosts []Host
		for {
			b := gen.Next(batch)
			if b == nil {
				break
			}
			hosts = append(hosts, b...)
		}
		got := fingerprintHosts(t, hosts)
		if len(got) != len(want) {
			t.Fatalf("batch %d: %d hosts, want %d", batch, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("batch %d: host %d differs from BuildWorld", batch, i)
			}
		}
	}
}

// TestMutatedWorldFractionAndShape checks the injection itself: roughly the
// configured fraction of devices diverges from the clean world, every mutant
// still parses (it must — Rewrite re-parses), sites are untouched, and the
// unmutated devices are byte-identical to the MutateFrac=0 world.
func TestMutatedWorldFractionAndShape(t *testing.T) {
	clean, err := BuildWorld(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallCfg()
	cfg.MutateFrac = 0.3
	mutated, err := BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Devices) != len(mutated.Devices) || len(clean.Sites) != len(mutated.Sites) {
		t.Fatalf("mutation changed population sizes: %d/%d devices, %d/%d sites",
			len(mutated.Devices), len(clean.Devices), len(mutated.Sites), len(clean.Sites))
	}
	changed := 0
	for i := range clean.Devices {
		c, m := clean.Devices[i].CurrentCert(), mutated.Devices[i].CurrentCert()
		if !bytes.Equal(c.Raw, m.Raw) {
			changed++
		} else if _, ok := mutated.mutator.OperatorFor(mutated.Devices[i].ID); ok &&
			mutated.Devices[i].fleetCert == nil {
			t.Errorf("device %d scheduled for mutation but serving clean bytes", i)
		}
		if _, err := x509lite.Parse(m.Raw); err != nil {
			t.Errorf("device %d: mutant unparseable: %v", i, err)
		}
	}
	// Fleet members inherit the leader's mutation decision rather than their
	// own, so the realized fraction wobbles beyond binomial noise; a wide
	// bracket still catches a dead or runaway schedule.
	if frac := float64(changed) / float64(len(clean.Devices)); frac < 0.15 || frac > 0.45 {
		t.Errorf("mutated fraction %.2f, want ~0.3", frac)
	}
	for i := range clean.Sites {
		if !bytes.Equal(clean.Sites[i].CurrentCert().Raw, mutated.Sites[i].CurrentCert().Raw) {
			t.Errorf("site %d mutated; sites must stay valid", i)
			break
		}
	}
}

// TestMutateSeedIndependentOfWorldSeed: an explicit MutateSeed pins the
// mutation schedule even when the world seed changes the underlying certs.
func TestMutateSeedIndependentOfWorldSeed(t *testing.T) {
	cfg := smallCfg()
	cfg.MutateFrac = 0.3
	cfg.MutateSeed = 77
	gen, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := certmutate.New(77, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	w := gen.World()
	// The world's mutator and a directly-built one must agree on the schedule.
	for host := 0; host < 500; host++ {
		a, aok := w.mutator.OperatorFor(host)
		b, bok := direct.OperatorFor(host)
		if aok != bok || a.ID != b.ID {
			t.Fatalf("host %d: world schedule (%s,%v) != direct schedule (%s,%v)", host, a.ID, aok, b.ID, bok)
		}
	}
}

func TestMutateFracValidation(t *testing.T) {
	cfg := smallCfg()
	cfg.MutateFrac = 1.5
	if _, err := NewGenerator(cfg); err == nil {
		t.Error("mutate fraction 1.5 accepted")
	}
	cfg.MutateFrac = -0.2
	if _, err := BuildWorld(cfg); err == nil {
		t.Error("mutate fraction -0.2 accepted")
	}
}
