package core

import (
	"io"
	"strings"
	"testing"

	"securepki/internal/obs"
)

// lintMetrics returns the stable lint.* counter and gauge values from reg.
func lintMetrics(reg *obs.Registry) map[string]int64 {
	out := map[string]int64{}
	for _, m := range reg.Snapshot().Stable().Metrics {
		if strings.HasPrefix(m.Name, "lint.") && m.Value != nil {
			out[m.Name] = *m.Value
		}
	}
	return out
}

// The resident lint stage and the streamed build's lint column report the
// same lint.* counters, and lint.flagged_certs.<severity> puts every linted
// certificate in exactly one bucket (lint.clean_certs holds those with no
// finding).
func TestLintMetricsResidentMatchStreamed(t *testing.T) {
	cfg := SmallConfig()
	cfg.Obs = obs.NewRegistry()
	p := &Pipeline{Config: cfg}
	if err := p.Generate(); err != nil {
		t.Fatal(err)
	}
	if err := p.Scan(); err != nil {
		t.Fatal(err)
	}
	p.Lint()
	resident := lintMetrics(cfg.Obs)

	cfg = SmallConfig()
	cfg.Obs = obs.NewRegistry()
	cfg.Stream.SpillDir = t.TempDir()
	if _, err := StreamSnapshot(cfg, true, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	streamed := lintMetrics(cfg.Obs)

	if len(resident) == 0 {
		t.Fatal("resident lint stage emitted no lint.* metrics")
	}
	for name, v := range resident {
		if sv, ok := streamed[name]; !ok || sv != v {
			t.Errorf("%s: resident %d, streamed %d (present %v)", name, v, sv, ok)
		}
	}
	for name := range streamed {
		if _, ok := resident[name]; !ok {
			t.Errorf("%s emitted by the streamed build only", name)
		}
	}

	certs := resident["lint.certs"]
	if certs != int64(p.Corpus.NumCerts()) {
		t.Errorf("lint.certs = %d, corpus has %d certificates", certs, p.Corpus.NumCerts())
	}
	buckets, findings, nonEmpty := resident["lint.clean_certs"], int64(0), 0
	for _, sev := range []string{"info", "warn", "error", "fatal"} {
		buckets += resident["lint.flagged_certs."+sev]
		findings += resident["lint.findings."+sev]
		if resident["lint.flagged_certs."+sev] > 0 {
			nonEmpty++
		}
	}
	if buckets != certs {
		t.Errorf("severity buckets sum to %d, lint.certs = %d", buckets, certs)
	}
	if findings != resident["lint.findings"] {
		t.Errorf("per-severity findings sum to %d, lint.findings = %d", findings, resident["lint.findings"])
	}
	if nonEmpty < 2 {
		t.Errorf("only %d non-empty flagged_certs buckets; the split carries no signal", nonEmpty)
	}
}
