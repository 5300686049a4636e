package core

import (
	"fmt"
	"io"
	"testing"

	"securepki/internal/obs"
)

// workMetrics returns the devicesim.* work counters a run left in reg.
func workMetrics(reg *obs.Registry) [3]int64 {
	return [3]int64{
		reg.Counter("devicesim.reissues").Value(),
		reg.Counter("devicesim.certs_signed").Value(),
		reg.Counter("devicesim.keys_derived").Value(),
	}
}

// The population signs a certificate only when a scan observes it, so the
// work counters are a pure function of the world and the scan schedule: the
// resident and streamed builds report the same counts at any worker count,
// and fewer certificates are signed than templates are built.
func TestWorkMetricsResidentMatchStreamed(t *testing.T) {
	runs := map[string][3]int64{}
	for _, workers := range []int{1, 4} {
		cfg := SmallConfig()
		cfg.Workers, cfg.Scan.Workers = workers, workers
		cfg.Obs = obs.NewRegistry()
		p := &Pipeline{Config: cfg}
		if err := p.Generate(); err != nil {
			t.Fatal(err)
		}
		if err := p.Scan(); err != nil {
			t.Fatal(err)
		}
		runs[fmt.Sprintf("resident workers=%d", workers)] = workMetrics(cfg.Obs)

		cfg = SmallConfig()
		cfg.Workers, cfg.Scan.Workers = workers, workers
		cfg.Obs = obs.NewRegistry()
		cfg.Stream.ChunkSize = 300 // chunk boundaries split fleets
		cfg.Stream.SpillDir = t.TempDir()
		if _, err := StreamSnapshot(cfg, true, io.Discard, nil); err != nil {
			t.Fatal(err)
		}
		runs[fmt.Sprintf("streamed workers=%d", workers)] = workMetrics(cfg.Obs)
	}

	want := runs["resident workers=1"]
	for name, got := range runs {
		if got != want {
			t.Errorf("%s: reissues/signed/derived = %v, resident workers=1 has %v", name, got, want)
		}
	}
	reissues, signed, derived := want[0], want[1], want[2]
	if signed <= 0 || derived <= 0 {
		t.Fatalf("no certificates signed (%d) or keys derived (%d)", signed, derived)
	}
	if signed >= reissues {
		t.Errorf("certs_signed %d not below reissues %d: unobserved certificates are being signed", signed, reissues)
	}
	t.Logf("reissues %d, certs_signed %d (%.1f%%), keys_derived %d",
		reissues, signed, 100*float64(signed)/float64(reissues), derived)
}
