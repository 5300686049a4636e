package devicesim

import (
	"testing"
	"time"
)

func smallCfg() Config {
	cfg := DefaultConfig()
	cfg.NumDevices = 400
	cfg.NumSites = 150
	return cfg
}

// fingerprintHosts reduces a host list to a comparable shape: the leaf DER
// each host serves at birth plus its birth time, which covers cert
// material, fleet sharing and birth times at once.
func fingerprintHosts(t *testing.T, hosts []Host) [][]byte {
	t.Helper()
	out := make([][]byte, 0, len(hosts))
	for _, h := range hosts {
		var der []byte
		switch v := h.(type) {
		case *Device:
			der = append([]byte{'d'}, v.CurrentCert().Raw...)
			der = append(der, v.Birth.AppendFormat(nil, time.RFC3339)...)
		case *Site:
			der = append([]byte{'s'}, v.CurrentCert().Raw...)
			der = append(der, v.Birth.AppendFormat(nil, time.RFC3339)...)
		default:
			t.Fatalf("unexpected host type %T", h)
		}
		out = append(out, der)
	}
	return out
}

// TestGeneratorBatchSizeInvariant drains the generator at several batch
// sizes — including 1, which lands a boundary inside every fleet — and
// demands the identical population each time.
func TestGeneratorBatchSizeInvariant(t *testing.T) {
	cfg := smallCfg()
	ref, err := BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprintHosts(t, ref.Hosts())

	for _, batch := range []int{1, 7, 100, 1 << 20} {
		gen, err := NewGenerator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if gen.NumHosts() != len(want) {
			t.Fatalf("batch %d: NumHosts %d, want %d", batch, gen.NumHosts(), len(want))
		}
		var hosts []Host
		for {
			b := gen.Next(batch)
			if b == nil {
				break
			}
			if len(b) > batch {
				t.Fatalf("batch %d: Next returned %d hosts", batch, len(b))
			}
			hosts = append(hosts, b...)
		}
		if gen.Remaining() != 0 {
			t.Fatalf("batch %d: %d hosts remaining after drain", batch, gen.Remaining())
		}
		got := fingerprintHosts(t, hosts)
		if len(got) != len(want) {
			t.Fatalf("batch %d: %d hosts, want %d", batch, len(got), len(want))
		}
		for i := range want {
			if string(got[i]) != string(want[i]) {
				t.Fatalf("batch %d: host %d differs from BuildWorld", batch, i)
			}
		}
	}
}

// TestGeneratorFleetSharingAcrossBatches verifies fleet members still share
// the leader's certificate when a batch boundary splits the fleet.
func TestGeneratorFleetSharingAcrossBatches(t *testing.T) {
	cfg := smallCfg()
	gen, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var devices []*Device
	for {
		b := gen.Next(1) // worst case: every fleet is split
		if b == nil {
			break
		}
		if d, ok := b[0].(*Device); ok {
			devices = append(devices, d)
		}
	}
	shared := 0
	for _, d := range devices {
		if d.fleetCert != nil {
			shared++
			if d.cert != d.fleetCert || d.CurrentCert() != d.fleetCert.get() {
				t.Fatal("fleet member serving a cert that is not the leader's")
			}
		}
	}
	if shared == 0 {
		t.Fatal("population has no fleet members; fleet carry is untested")
	}
}
