// Package core wires the substrates into the paper's end-to-end pipeline —
// generate population → run scan campaigns → validate certificates → analyse
// (§4–§5) → link (§6) → track (§7) — and exposes a registry of experiments
// that regenerates every table and figure in the evaluation.
package core

import (
	"fmt"
	"io"
	"sort"
	"time"

	"securepki/internal/analysis"
	"securepki/internal/certlint"
	"securepki/internal/devicesim"
	"securepki/internal/linking"
	"securepki/internal/obs"
	"securepki/internal/scanner"
	"securepki/internal/scanstore"
	"securepki/internal/snapshot"
	"securepki/internal/tracking"
	"securepki/internal/truststore"
	"securepki/internal/x509lite"
)

// Config assembles the stage configurations. DefaultConfig reproduces the
// paper's setup at laptop scale.
type Config struct {
	World   devicesim.Config
	Scan    scanner.Config
	Linking linking.Config
	// Workers bounds the pipeline's parallel stages — validation, index
	// building and linking; <= 0 means GOMAXPROCS. The scan stage has its
	// own knob (Scan.Workers). Results are byte-identical at any worker
	// count; see DESIGN.md "Concurrency model & determinism".
	Workers int
	// Obs receives the core.* stage counters (certs validated per status,
	// sightings indexed, link coverage, chain-memo hits/misses) and is
	// threaded into the snapshot codec and the linker. nil disables
	// instrumentation; see DESIGN.md "Observability contract".
	Obs *obs.Registry
	// Tracer emits one span per pipeline stage. nil disables tracing.
	Tracer *obs.Tracer
	// Journal receives structured events at serial program points — stage
	// starts, spill runs, lint-column writes — so the event stream is
	// worker-count-independent like the metrics. nil disables journaling.
	Journal *obs.Journal
	// LintConfig scopes or suppresses registry linters in the lint stage
	// (certlint.json semantics); nil runs every registered linter everywhere.
	LintConfig *certlint.Config
	// Stream sizes the streaming build path (StreamSnapshot) and the spill
	// state of the resident pipeline's snapshot writes.
	Stream StreamConfig
}

// DefaultConfig returns the standard experiment sizing.
func DefaultConfig() Config {
	return Config{
		World:   devicesim.DefaultConfig(),
		Scan:    scanner.DefaultConfig(),
		Linking: linking.DefaultConfig(),
	}
}

// SmallConfig returns a reduced sizing for quick runs (examples, smoke
// tests); distributions remain measurable but noisier.
func SmallConfig() Config {
	cfg := DefaultConfig()
	cfg.World.NumDevices = 1500
	cfg.World.NumSites = 650
	cfg.Scan.UMichScans = 16
	cfg.Scan.Rapid7Scans = 8
	return cfg
}

// Pipeline carries every artefact of one full run.
type Pipeline struct {
	Config Config

	World  *devicesim.World
	Corpus *scanstore.Corpus
	Truth  *scanner.Truth
	// ValidationCounts is the §4.2 outcome per status.
	ValidationCounts map[truststore.Status]int

	Dataset    *analysis.Dataset
	Linker     *linking.Linker
	LinkResult linking.Result
	Tracker    *tracking.Tracker

	// LintResults holds the lint stage's output: one entry per corpus
	// certificate, fingerprint-sorted, findings sorted by (LintID, Severity).
	LintResults []certlint.CertFindings
}

// span starts a stage span on the configured tracer (nil-safe).
func (p *Pipeline) span(name string) *obs.Span {
	return p.Config.Tracer.Start(name)
}

// Stage ordinals for the progress.stage gauge — what /statusz renders while
// a build is running.
const (
	stageGenerate = 1 + iota
	stageScan
	stageValidate
	stageLint
	stageLink
	stageTrack
)

// stage marks a stage boundary: progress gauge, journal event, tracer span.
// Stages begin at serial program points, so the journal line sequence is the
// same at any worker count.
func (p *Pipeline) stage(name string, ordinal int64) *obs.Span {
	p.Config.Obs.Gauge("progress.stage").Set(ordinal)
	p.Config.Journal.Emit("stage.start", "stage", name)
	return p.span(name)
}

// Run executes the full pipeline.
func Run(cfg Config) (*Pipeline, error) {
	p := &Pipeline{Config: cfg}
	if err := p.Generate(); err != nil {
		return nil, err
	}
	if err := p.Scan(); err != nil {
		return nil, err
	}
	p.Validate()
	p.Lint()
	p.Link()
	p.Track()
	return p, nil
}

// Generate builds the world (stage 1).
func (p *Pipeline) Generate() error {
	span := p.stage("core.generate", stageGenerate)
	w, err := devicesim.BuildWorld(p.Config.World)
	if err != nil {
		return fmt.Errorf("core: generate: %w", err)
	}
	p.World = w
	reg := p.Config.Obs
	reg.Counter("core.world.devices").Add(int64(len(w.Devices)))
	reg.Counter("core.world.sites").Add(int64(len(w.Sites)))
	reg.Gauge("progress.hosts_done").Set(int64(len(w.Devices)))
	span.End()
	return nil
}

// Scan runs both operators' campaigns (stage 2). Generate must have run.
func (p *Pipeline) Scan() error {
	if p.World == nil {
		return fmt.Errorf("core: Scan before Generate")
	}
	camp, err := scanner.New(p.World, p.Config.Scan)
	if err != nil {
		return fmt.Errorf("core: scan: %w", err)
	}
	span := p.stage("core.scan", stageScan)
	corpus, truth, err := camp.Run()
	if err != nil {
		return fmt.Errorf("core: scan: %w", err)
	}
	p.Corpus, p.Truth = corpus, truth
	reg := p.Config.Obs
	reg.Counter("core.scan.scans").Add(int64(corpus.NumScans()))
	reg.Counter("core.scan.observations").Add(int64(corpus.NumObservations()))
	reg.Counter("core.corpus.certs").Add(int64(corpus.NumCerts()))
	recordWork(reg, p.World.Work())
	span.End()
	return nil
}

// recordWork publishes a world's host-certificate work counts after its
// scans: templates built at reissue, the certificates some scan observed and
// so had to sign, and the keys that took. reissues - certs_signed is the
// work the lazy population skipped. Both build paths call it with the same
// counts, at any worker count.
func recordWork(reg *obs.Registry, w devicesim.Work) {
	reg.Counter("devicesim.reissues").Add(w.Reissues)
	reg.Counter("devicesim.certs_signed").Add(w.CertsSigned)
	reg.Counter("devicesim.keys_derived").Add(w.KeysDerived)
}

// WriteSnapshot serialises the corpus in the v2 sharded columnar format
// (internal/snapshot) through the streaming encoder, which spills under
// Config.Stream's budget and directory. Output bytes depend on neither.
func (p *Pipeline) WriteSnapshot(w io.Writer) error {
	if p.Corpus == nil {
		return fmt.Errorf("core: WriteSnapshot before Scan or LoadSnapshot")
	}
	return p.writeSnapshot(w, snapshot.Options{Obs: p.Config.Obs}, false)
}

// writeSnapshot encodes the resident corpus through snapshot.StreamCorpus.
func (p *Pipeline) writeSnapshot(w io.Writer, opt snapshot.Options, v3 bool) error {
	cfg := snapshot.StreamWriterConfig{
		SpillDir:  p.Config.Stream.SpillDir,
		MemBudget: p.Config.Stream.MemBudget,
		V3:        v3,
	}
	if err := snapshot.StreamCorpus(w, p.Corpus, opt, cfg); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// WriteSnapshotV3 serialises the corpus in the v3 indexed format: the same
// sharded payloads as v2 plus the point-lookup index sections that
// cmd/certquery and internal/querystore serve from. When the pipeline has a
// generated world, its simulated Internet provides the AS index; a corpus
// loaded from disk has no network view, so the AS section is written empty.
func (p *Pipeline) WriteSnapshotV3(w io.Writer) error {
	if p.Corpus == nil {
		return fmt.Errorf("core: WriteSnapshotV3 before Scan or LoadSnapshot")
	}
	opt := snapshot.Options{Obs: p.Config.Obs}
	if p.World != nil && p.World.Internet != nil {
		opt.ASOf = snapshot.InternetASOf(p.World.Internet)
	}
	return p.writeSnapshot(w, opt, true)
}

// LoadSnapshot replaces the pipeline's scan stage with a corpus read from a
// snapshot in either on-disk format (v2 columnar, v3 indexed), decoding across
// Config.Workers. Ground truth is not persisted, so p.Truth stays nil and
// truth-based evaluations degrade to zeros; everything downstream of the
// corpus (Validate, Link, Track) runs as usual.
func (p *Pipeline) LoadSnapshot(r io.Reader) error {
	c, err := snapshot.Read(r, snapshot.Options{Workers: p.Config.Workers, Obs: p.Config.Obs})
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	p.Corpus, p.Truth = c, nil
	return nil
}

// Validate classifies every certificate against the world's root store
// (stage 3) and builds the analysis dataset. Both fan out across
// Config.Workers.
func (p *Pipeline) Validate() {
	span := p.stage("core.validate", stageValidate)
	store := truststore.NewStore()
	for _, r := range p.World.Roots() {
		store.AddRoot(r)
	}
	p.ValidationCounts = p.Corpus.ValidateWorkers(store, p.Config.Workers)
	p.Dataset = analysis.NewDatasetWorkers(p.Corpus, p.World.Internet, p.Config.Workers)
	if reg := p.Config.Obs; reg != nil {
		reg.Counter("core.validate.certs").Add(int64(p.Corpus.NumCerts()))
		statuses := make([]truststore.Status, 0, len(p.ValidationCounts))
		for st := range p.ValidationCounts {
			statuses = append(statuses, st)
		}
		sort.Slice(statuses, func(i, j int) bool { return statuses[i] < statuses[j] })
		for _, st := range statuses {
			reg.Counter("core.validate.status." + st.String()).Add(int64(p.ValidationCounts[st]))
		}
		// The memo counts are deterministic: misses happen exactly once per
		// distinct issuer fingerprint (the fill holds the lock), so even
		// these are worker-independent.
		hits, misses := store.ChainCacheStats()
		reg.Counter("core.validate.chain_memo.hits").Add(int64(hits))
		reg.Counter("core.validate.chain_memo.misses").Add(int64(misses))
		reg.Counter("core.index.sightings").Add(int64(p.Corpus.NumObservations()))
	}
	span.End()
}

// Lint runs the default registry over every corpus certificate (stage 3b),
// with the corpus-wide key-sharing census as lint context. The results are
// fingerprint-sorted and byte-identical at any worker count; the registry
// emits the lint.* metrics itself.
func (p *Pipeline) Lint() {
	span := p.stage("core.lint", stageLint)
	certs := make([]*x509lite.Certificate, 0, p.Corpus.NumCerts())
	ctx := &certlint.Context{KeyCount: make(map[x509lite.Fingerprint]int, p.Corpus.NumCerts())}
	for _, rec := range p.Corpus.Certs() {
		certs = append(certs, rec.Cert)
		ctx.KeyCount[rec.Cert.PublicKeyFingerprint()]++
	}
	p.LintResults = certlint.Default().RunCorpus(certs, ctx, certlint.Options{
		Workers: p.Config.Workers,
		Config:  p.Config.LintConfig,
		Obs:     p.Config.Obs,
	})
	span.End()
}

// WriteLintColumn persists the lint stage's findings as the checksummed
// sidecar column (internal/snapshot format SPKILC01) that cmd/analyze reads
// back and cmd/certquery serves point lookups from.
func (p *Pipeline) WriteLintColumn(w io.Writer) error {
	if p.LintResults == nil {
		return fmt.Errorf("core: WriteLintColumn before Lint")
	}
	if err := snapshot.WriteLintColumn(w, p.LintResults, certlint.Default().Infos()); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	p.Config.Journal.Emit("lintcol.write", "certs", fmt.Sprint(len(p.LintResults)))
	return nil
}

// Link runs the §6 pipeline (stage 4). The pipeline-level Workers knob
// applies unless the linking config pins its own.
func (p *Pipeline) Link() {
	span := p.stage("core.link", stageLink)
	cfg := p.Config.Linking
	if cfg.Workers == 0 {
		cfg.Workers = p.Config.Workers
	}
	if cfg.Obs == nil {
		cfg.Obs = p.Config.Obs
	}
	p.Linker = linking.NewLinker(p.Dataset, cfg)
	p.LinkResult = p.Linker.Link()
	reg := p.Config.Obs
	reg.Counter("core.link.invalid_total").Add(int64(p.Linker.InvalidTotal()))
	reg.Counter("core.link.eligible").Add(int64(p.LinkResult.EligibleCerts))
	reg.Counter("core.link.excluded_shared").Add(int64(p.Linker.ExcludedShared()))
	reg.Counter("core.link.groups").Add(int64(len(p.LinkResult.Groups)))
	reg.Counter("core.link.linked_certs").Add(int64(p.LinkResult.LinkedCerts))
	span.End()
}

// Track derives device entities (stage 5).
func (p *Pipeline) Track() {
	span := p.stage("core.track", stageTrack)
	p.Tracker = tracking.NewTracker(p.Dataset, p.LinkResult, p.Linker)
	p.Config.Obs.Counter("core.track.entities").Add(int64(len(p.Tracker.Entities())))
	span.End()
}

// Year is the §7 trackability threshold.
const Year = 365 * 24 * time.Hour
