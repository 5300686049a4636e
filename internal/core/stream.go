package core

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sort"

	"securepki/internal/certlint"
	"securepki/internal/devicesim"
	"securepki/internal/netsim"
	"securepki/internal/obs"
	"securepki/internal/parallel"
	"securepki/internal/scanner"
	"securepki/internal/scanstore"
	"securepki/internal/snapshot"
	"securepki/internal/x509lite"
)

// StreamConfig sizes the streaming build path (Config.Stream). The zero
// value streams with the defaults: 8192-host chunks, 256 MiB budgets, spills
// in the OS temp dir.
type StreamConfig struct {
	// ChunkSize is how many hosts each population chunk holds (<= 0 means
	// 8192). Output bytes are identical at every setting.
	ChunkSize int
	// MemBudget bounds, in bytes, both the chunk store's live set and the
	// snapshot writer's sorter buffers (<= 0 means 256 MiB each).
	MemBudget int64
	// SpillDir hosts every spill file ("" means the OS temp dir).
	SpillDir string
}

// StreamStats summarises one streaming build for callers and tests.
type StreamStats struct {
	Hosts        int
	Chunks       int
	Spills       int
	SpilledBytes int64
	Certs        int
	Scans        int
	MergeFanIn   int
}

// StreamSnapshot runs generate → scan → snapshot (→ lint) end to end on the
// streaming path: the population is drawn in chunks from a
// devicesim.Generator, scan results accumulate in a budget-bounded
// scanner.ChunkStore, and the snapshot assembles through a
// snapshot.StreamWriter whose bulky state lives on disk. No resident world,
// corpus or index exists at any point, yet the bytes written to snapW (v2,
// or v3 when v3 is true) and lintW (the lint sidecar column; nil skips the
// lint pass) are identical to the in-memory pipeline's at any chunk size and
// worker count — the streaming goldens pin this.
//
// The cfg.Obs registry receives the mem.* gauges (live chunks, spilled runs,
// spilled bytes, merge fan-in, and a volatile heap high-water) on top of the
// stage counters the substrates already emit; cfg.Tracer gets a core.spill
// span per chunk spill alongside the usual stage spans.
func StreamSnapshot(cfg Config, v3 bool, snapW, lintW io.Writer) (*StreamStats, error) {
	reg := cfg.Obs
	stats := &StreamStats{}

	span := cfg.Tracer.Start("core.generate")
	gen, err := devicesim.NewGenerator(cfg.World)
	if err != nil {
		return nil, fmt.Errorf("core: stream generate: %w", err)
	}
	stats.Hosts = gen.NumHosts()
	span.End()

	camp, err := scanner.New(gen.World(), cfg.Scan)
	if err != nil {
		return nil, fmt.Errorf("core: stream scan: %w", err)
	}
	sched := camp.Schedule()

	store := scanner.NewChunkStore(len(sched), cfg.Stream.MemBudget, cfg.Stream.SpillDir)
	defer store.Close()
	liveGauge := reg.Gauge("mem.live_chunks")
	spillGauge := reg.Gauge("mem.spilled_runs")
	spillBytes := reg.Gauge("mem.spilled_bytes")
	store.OnSpill = func(chunk int, n int64) {
		sp := cfg.Tracer.Start("core.spill")
		liveGauge.Set(int64(store.LiveChunks()))
		spillGauge.Set(int64(store.Spills()))
		spillBytes.Set(store.SpilledBytes())
		sp.End()
	}

	span = cfg.Tracer.Start("core.scan")
	if err := camp.StreamRun(gen, cfg.Stream.ChunkSize, store); err != nil {
		return nil, fmt.Errorf("core: stream scan: %w", err)
	}
	liveGauge.Set(int64(store.LiveChunks()))
	stats.Chunks = store.NumChunks()
	reg.Counter("core.scan.scans").Add(int64(len(sched)))
	recordWork(reg, gen.World().Work())
	span.End()
	readHeapHighWater(reg)

	opt := snapshot.Options{Obs: cfg.Obs}
	if v3 {
		opt.ASOf = snapshot.InternetASOf(gen.World().Internet)
	}
	sw, err := snapshot.NewStreamWriter(opt, snapshot.StreamWriterConfig{
		SpillDir:  cfg.Stream.SpillDir,
		MemBudget: cfg.Stream.MemBudget,
		V3:        v3,
		KeepDERs:  lintW != nil,
	})
	if err != nil {
		return nil, fmt.Errorf("core: stream snapshot: %w", err)
	}
	defer sw.Close()

	// Scan-major replay: for each scan, every chunk's section in chunk order.
	// A chunk's new-cert lists replay in the order its local IDs were
	// assigned, so maps[k] incrementally extends to translate local IDs; the
	// global intern order this produces is exactly the in-memory path's.
	span = cfg.Tracer.Start("core.replay")
	var obsCount int64
	maps := make([][]scanstore.CertID, store.NumChunks())
	for s := range sched {
		if err := sw.BeginScan(sched[s].Operator, sched[s].Time); err != nil {
			return nil, fmt.Errorf("core: stream replay: %w", err)
		}
		for k := 0; k < store.NumChunks(); k++ {
			certs, obsRecs, err := store.Section(k, s)
			if err != nil {
				return nil, fmt.Errorf("core: stream replay: %w", err)
			}
			for _, nc := range certs {
				id, _, err := sw.Intern(nc.DER, nc.FP, nc.SPKI)
				if err != nil {
					return nil, fmt.Errorf("core: stream replay: %w", err)
				}
				maps[k] = append(maps[k], id)
			}
			for _, o := range obsRecs {
				if int(o.Local) >= len(maps[k]) {
					return nil, fmt.Errorf("core: stream replay: chunk %d references local cert %d of %d", k, o.Local, len(maps[k]))
				}
				if err := sw.AddObs(maps[k][o.Local], netsim.IP(o.IP)); err != nil {
					return nil, fmt.Errorf("core: stream replay: %w", err)
				}
				obsCount++
			}
		}
	}
	span.End()
	stats.Spills = store.Spills()
	stats.SpilledBytes = store.SpilledBytes()
	stats.Certs = sw.NumCerts()
	stats.Scans = len(sched)
	stats.MergeFanIn = sw.MergeFanIn()
	reg.Counter("core.scan.observations").Add(obsCount)
	reg.Counter("core.corpus.certs").Add(int64(sw.NumCerts()))
	reg.Gauge("mem.merge_fanin").Set(int64(stats.MergeFanIn))
	readHeapHighWater(reg)

	span = cfg.Tracer.Start("core.snapshot")
	if err := sw.Finish(snapW); err != nil {
		return nil, fmt.Errorf("core: stream snapshot: %w", err)
	}
	span.End()

	if lintW != nil {
		span = cfg.Tracer.Start("core.lint")
		if err := streamLint(sw, cfg, lintW); err != nil {
			return nil, fmt.Errorf("core: stream lint: %w", err)
		}
		span.End()
	}
	readHeapHighWater(reg)
	return stats, nil
}

// streamLint runs the default lint battery over the writer's retained DERs
// and emits the sidecar column, byte-identical to Pipeline.Lint +
// WriteLintColumn: the same corpus-wide key census feeds the same per-cert
// RunCert, results sort by fingerprint, and certlint's RecordMetrics emits
// the same lint.* counters. Certificates lint in bounded parallel batches so
// only one batch of parsed certs is resident.
func streamLint(sw *snapshot.StreamWriter, cfg Config, lintW io.Writer) error {
	n := sw.NumCerts()
	ctx := &certlint.Context{KeyCount: make(map[x509lite.Fingerprint]int, n)}
	for id := 0; id < n; id++ {
		ctx.KeyCount[sw.SPKI(scanstore.CertID(id))]++
	}
	regy := certlint.Default()

	const lintBatch = 2048
	results := make([]certlint.CertFindings, 0, n)
	batch := make([][]byte, 0, lintBatch)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		part := parallel.Map(cfg.Workers, len(batch), func(i int) certlint.CertFindings {
			cert, err := x509lite.Parse(batch[i])
			if err != nil {
				// The DER came out of a checksummed spill of certs the scan
				// itself parsed; a parse failure here is corruption.
				return certlint.CertFindings{}
			}
			return certlint.CertFindings{
				Fingerprint: cert.Fingerprint(),
				Findings:    regy.RunCert(cert, ctx, cfg.LintConfig),
			}
		})
		for i, cf := range part {
			if cf.Fingerprint == (x509lite.Fingerprint{}) {
				return fmt.Errorf("lint batch: certificate %d failed to parse", i)
			}
			results = append(results, cf)
		}
		batch = batch[:0]
		return nil
	}
	err := sw.EachCert(func(_ scanstore.CertID, _, _ x509lite.Fingerprint, der []byte) error {
		batch = append(batch, append([]byte(nil), der...))
		if len(batch) >= lintBatch {
			return flush()
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := flush(); err != nil {
		return err
	}
	sort.SliceStable(results, func(a, b int) bool {
		return bytes.Compare(results[a].Fingerprint[:], results[b].Fingerprint[:]) < 0
	})

	regy.RecordMetrics(cfg.Obs, results)
	return snapshot.WriteLintColumn(lintW, results, regy.Infos())
}

// readHeapHighWater samples the heap high-water mark into a volatile gauge.
// Scheduling and GC timing make the value non-deterministic, which is
// exactly what obs.Volatile marks it as; golden comparisons skip it.
func readHeapHighWater(reg *obs.Registry) {
	if reg == nil {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	g := reg.Gauge("mem.heap_high_water", obs.Volatile)
	if int64(ms.HeapAlloc) > g.Value() {
		g.Set(int64(ms.HeapAlloc))
	}
}
