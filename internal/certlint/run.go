package certlint

import (
	"bytes"
	"sort"
	"strings"
	"time"

	"securepki/internal/obs"
	"securepki/internal/parallel"
	"securepki/internal/x509lite"
)

// Options configures a corpus run.
type Options struct {
	// Workers is the parallel worker knob; <= 0 means GOMAXPROCS. Findings
	// are byte-identical at every setting.
	Workers int
	// Config holds certlint.json adjustments; nil means defaults.
	Config *Config
	// Obs receives lint.* metrics; nil disables them.
	Obs *obs.Registry
	// Now supplies wall-clock readings for the volatile throughput metric.
	// Commands inject time.Now; libraries and tests leave it nil, which
	// skips the measurement entirely (internal packages never read the
	// clock themselves — the repolint wallclock rule).
	Now func() time.Time
}

// CertFindings pairs one certificate's fingerprint with its sorted findings.
type CertFindings struct {
	Fingerprint x509lite.Fingerprint
	Findings    []Finding
}

// RunCert lints one certificate: every enabled, applicable linter in ID
// order, findings sorted by (LintID, Severity). The sort is part of the
// persisted-format contract — see Severity.
func (r *Registry) RunCert(c *x509lite.Certificate, ctx *Context, cfg *Config) []Finding {
	profiles := ProfilesOf(c)
	var out []Finding
	var subject, issuer string
	named := false
	for _, i := range r.sortedIndexes() {
		l := r.linters[i]
		if lc := cfg.lintConfig(l.ID); lc != nil && lc.Disabled {
			continue
		}
		if mask := cfg.effectiveProfiles(l); mask != ProfileAll && mask&profiles == 0 {
			continue
		}
		detail, hit := r.runCheck(i, l, c, ctx)
		if !hit {
			continue
		}
		if cfg != nil {
			if !named {
				subject, issuer = c.Subject.String(), c.Issuer.String()
				named = true
			}
			if cfg.suppressed(l.ID, subject, issuer) {
				continue
			}
		}
		out = append(out, Finding{LintID: l.ID, Version: l.Version, Severity: l.Severity, Detail: detail})
	}
	sortFindings(out)
	return out
}

// runCheck invokes one linter's check, honouring its declared concurrency.
func (r *Registry) runCheck(i int, l Linter, c *x509lite.Certificate, ctx *Context) (string, bool) {
	if g := r.gate(i); g != nil {
		g <- struct{}{}
		defer func() { <-g }()
	}
	return l.Check(c, ctx)
}

// sortFindings orders findings by (LintID, Severity) — the stable order
// every consumer (reports, the findings column, the goldens) relies on.
func sortFindings(fs []Finding) {
	sort.SliceStable(fs, func(a, b int) bool {
		if fs[a].LintID != fs[b].LintID {
			return fs[a].LintID < fs[b].LintID
		}
		return fs[a].Severity < fs[b].Severity
	})
}

// RunCorpus lints a population through the worker pool and returns per-cert
// findings sorted by fingerprint. The output is byte-identical at any worker
// count: each certificate is linted independently, parallel.Map preserves
// input order, and the final fingerprint sort erases any residual input
// ordering. Metrics are counted after the barrier so they are stable too;
// only the lint.certs_per_sec histogram is volatile (and only measured when
// Options.Now is injected).
func (r *Registry) RunCorpus(certs []*x509lite.Certificate, ctx *Context, opts Options) []CertFindings {
	var start time.Time
	if opts.Now != nil {
		start = opts.Now()
	}

	results := parallel.Map(opts.Workers, len(certs), func(i int) CertFindings {
		c := certs[i]
		return CertFindings{
			Fingerprint: c.Fingerprint(),
			Findings:    r.RunCert(c, ctx, opts.Config),
		}
	})
	sort.SliceStable(results, func(a, b int) bool {
		return bytes.Compare(results[a].Fingerprint[:], results[b].Fingerprint[:]) < 0
	})

	if reg := opts.Obs; reg != nil {
		r.RecordMetrics(reg, results)
		if opts.Now != nil {
			if secs := opts.Now().Sub(start).Seconds(); secs > 0 {
				reg.Histogram("lint.certs_per_sec", nil, obs.Volatile).
					Observe(int64(float64(len(results)) / secs))
			}
		}
	}
	return results
}

// RecordMetrics adds one corpus run's stable lint.* metrics to reg: the
// linter count, lint.certs, lint.findings and its per-severity split, and
// lint.flagged_certs.<severity>, which counts each certificate once under
// its worst finding (lint.clean_certs counts those with none, so the buckets
// sum to lint.certs). RunCorpus calls it; so does any caller that lints
// through RunCert itself, so every lint path reports the same counters.
func (r *Registry) RecordMetrics(reg *obs.Registry, results []CertFindings) {
	if reg == nil {
		return
	}
	var findings, flagged [NumSeverities]int64
	var total, clean int64
	for _, cf := range results {
		if len(cf.Findings) == 0 {
			clean++
			continue
		}
		worst := Info
		for _, f := range cf.Findings {
			findings[f.Severity]++
			total++
			worst = max(worst, f.Severity)
		}
		flagged[worst]++
	}
	reg.Gauge("lint.linters").Set(int64(r.Len()))
	reg.Counter("lint.certs").Add(int64(len(results)))
	reg.Counter("lint.findings").Add(total)
	reg.Counter("lint.clean_certs").Add(clean)
	for s := Info; s <= Fatal; s++ {
		name := strings.ToLower(s.String())
		reg.Counter("lint.findings." + name).Add(findings[s])
		reg.Counter("lint.flagged_certs." + name).Add(flagged[s])
	}
}
