package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"securepki/internal/analysis"
	"securepki/internal/core"
	"securepki/internal/netsim"
	"securepki/internal/obs"
	"securepki/internal/snapshot"
	"securepki/internal/truststore"
)

// Child modes: the work one child process does.
const (
	modeProbe  = "probe"  // start up, report, exit: a set-up sample
	modePaper  = "paper"  // one resident build
	modeStream = "stream" // one streamed build
	modePrep   = "prep"   // one resident build kept as the seed's reference
)

// Output file names inside a child's output directory.
const (
	fileV3      = "corpus.v3"
	fileLintCol = "findings.lc"
	fileSummary = "summary.json"
	fileKeys    = "keys.json"
	fileRef     = "ref.json"
)

// Streamed-build sizing: small chunks and a small budget so the chunk store
// and the snapshot writer both spill at the default population.
const (
	streamChunkHosts = 2048
	streamMemBudget  = 4 << 20
)

// childReport is the last line a child prints.
type childReport struct {
	// StageStart is the wall-clock instant (Unix ns) the first stage began;
	// the parent subtracts its launch instant to get setup_s.
	StageStart int64 `json:"stage_start_unix_ns"`
	// Digests maps output name (summary, v3, lintcol) to its hex SHA-256.
	Digests map[string]string `json:"digests,omitempty"`
	// Certs is the number of certificates the build produced.
	Certs int `json:"certs"`
	// Layers holds the traced per-layer numbers (seconds, counts, bytes).
	Layers map[string]float64 `json:"layers,omitempty"`
}

// configFor is the pipeline configuration for a scale and seed. Seed 1 at
// the default scale is exactly core.DefaultConfig.
func configFor(scale string, seed uint64) (core.Config, error) {
	var cfg core.Config
	switch scale {
	case "default":
		cfg = core.DefaultConfig()
	case "tiny":
		cfg = core.SmallConfig()
		cfg.World.NumDevices = 300
		cfg.World.NumSites = 150
		cfg.Scan.UMichScans = 4
		cfg.Scan.Rapid7Scans = 2
	default:
		return cfg, fmt.Errorf("unknown -scale %q (want default or tiny)", scale)
	}
	cfg.World.Seed = seed
	cfg.Scan.Seed = seed + 6 // the default scan seed is 7
	return cfg, nil
}

func childMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench child", flag.ContinueOnError)
	fs.SetOutput(stderr)
	mode := fs.String("mode", "", "probe, paper, stream or prep")
	seed := fs.Uint64("seed", 1, "input seed")
	scale := fs.String("scale", "default", "population size")
	traced := fs.Bool("trace", false, "time each layer call")
	out := fs.String("out", "", "output directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg, err := configFor(*scale, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench child:", err)
		return 2
	}
	rep := childReport{StageStart: time.Now().UnixNano()}
	switch *mode {
	case modeProbe:
	case modePaper, modePrep:
		err = childPaper(cfg, *traced, *out, *mode == modePrep, &rep)
	case modeStream:
		err = childStream(cfg, *traced, *out, &rep)
	default:
		err = fmt.Errorf("unknown -mode %q", *mode)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench child:", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(rep); err != nil {
		fmt.Fprintln(stderr, "perfbench child:", err)
		return 1
	}
	return 0
}

// layerTimer times calls into layers from outside; a nil map times nothing.
type layerTimer map[string]float64

func (lt layerTimer) run(name string, f func() error) error {
	if lt == nil {
		return f()
	}
	t := time.Now()
	err := f()
	lt[name] += timeSince(t)
	return err
}

// childPaper runs the resident pipeline and writes its v3 snapshot and lint
// column. Untraced it calls core.Run; traced it makes the same stage calls
// one by one (Validate split into its truststore and analysis halves) with a
// timer around each. Either way the outputs must hash to the seed's
// reference, so the two compositions cannot drift apart unnoticed.
func childPaper(cfg core.Config, traced bool, out string, prep bool, rep *childReport) error {
	var lt layerTimer
	var reg *obs.Registry
	var p *core.Pipeline
	if !traced {
		var err error
		if p, err = core.Run(cfg); err != nil {
			return err
		}
	} else {
		lt, reg = layerTimer{}, obs.NewRegistry()
		cfg.Obs = reg
		p = &core.Pipeline{Config: cfg}
		if err := lt.run("devicesim.build_world_s", p.Generate); err != nil {
			return err
		}
		if err := lt.run("scanner.campaign_run_s", p.Scan); err != nil {
			return err
		}
		store := truststore.NewStore()
		for _, r := range p.World.Roots() {
			store.AddRoot(r)
		}
		lt.run("truststore.validate_s", func() error {
			p.ValidationCounts = p.Corpus.ValidateWorkers(store, cfg.Workers)
			return nil
		})
		lt.run("analysis.dataset_s", func() error {
			p.Dataset = analysis.NewDatasetWorkers(p.Corpus, p.World.Internet, cfg.Workers)
			return nil
		})
		lt.run("certlint.run_corpus_s", func() error { p.Lint(); return nil })
		lt.run("linking.link_s", func() error { p.Link(); return nil })
		lt.run("tracking.tracker_s", func() error { p.Track(); return nil })
		hits, misses := store.ChainCacheStats()
		lt["truststore.chain_memo_hits"] = float64(hits)
		lt["truststore.chain_memo_misses"] = float64(misses)
	}

	rep.Digests = map[string]string{}
	var v3Bytes int64
	err := lt.run("snapshot.write_v3_s", func() error {
		var err error
		rep.Digests["v3"], v3Bytes, err = writeHashed(filepath.Join(out, fileV3), p.WriteSnapshotV3)
		return err
	})
	if err != nil {
		return err
	}
	err = lt.run("snapshot.write_lintcol_s", func() error {
		var err error
		rep.Digests["lintcol"], _, err = writeHashed(filepath.Join(out, fileLintCol), p.WriteLintColumn)
		return err
	})
	if err != nil {
		return err
	}
	err = lt.run("bench.check_s", func() error {
		sum := core.Summarize(p)
		if prep {
			var err error
			rep.Digests["summary"], _, err = writeHashed(filepath.Join(out, fileSummary), sum.WriteJSON)
			return err
		}
		h := sha256.New()
		if err := sum.WriteJSON(h); err != nil {
			return err
		}
		rep.Digests["summary"] = hex.EncodeToString(h.Sum(nil))
		return nil
	})
	if err != nil {
		return err
	}
	rep.Certs = p.Corpus.NumCerts()
	if prep {
		if err := writeKeys(filepath.Join(out, fileKeys), p); err != nil {
			return err
		}
	}
	if lt == nil {
		return nil
	}
	findings := 0
	for _, cf := range p.LintResults {
		findings += len(cf.Findings)
	}
	lt["certlint.findings"] = float64(findings)
	cand := reg.Counter("linking.candidates").Value()
	conf := reg.Counter("linking.groups.confirmed").Value()
	lt["linking.candidates"] = float64(cand)
	lt["linking.confirmed"] = float64(conf)
	if cand > 0 {
		lt["linking.confirmed_ratio"] = float64(conf) / float64(cand)
	}
	snapshotCounts(lt, reg, v3Bytes)
	rep.Layers = lt
	return nil
}

// snapshotCounts copies the scan and snapshot-encoder counters both batch
// workloads share.
func snapshotCounts(lt layerTimer, reg *obs.Registry, fileBytes int64) {
	lt["scanner.observations"] = float64(reg.Counter("core.scan.observations").Value())
	lt["scanner.certs"] = float64(reg.Counter("core.corpus.certs").Value())
	lt["snapshot.file_bytes"] = float64(fileBytes)
	lt["snapshot.raw_bytes"] = float64(reg.Counter("snapshot.encode.raw_bytes").Value())
	lt["snapshot.comp_bytes"] = float64(reg.Counter("snapshot.encode.comp_bytes").Value())
}

// streamSpans maps the spans core.StreamSnapshot emits, in order, to layer
// metrics.
var streamSpans = []struct{ span, metric string }{
	{"core.generate", "devicesim.new_generator_s"},
	{"core.scan", "scanner.stream_run_s"},
	{"core.replay", "snapshot.stream_replay_s"},
	{"core.snapshot", "snapshot.stream_finish_s"},
}

// childStream runs core.StreamSnapshot to a v3 file. Traced, it reads the
// stage spans StreamSnapshot already emits through Config.Tracer, so the
// benchmark does not copy its composition.
func childStream(cfg core.Config, traced bool, out string, rep *childReport) error {
	cfg.Stream = core.StreamConfig{ChunkSize: streamChunkHosts, MemBudget: streamMemBudget, SpillDir: out}
	var tr *obs.Tracer
	if traced {
		cfg.Obs = obs.NewRegistry()
		tr = obs.NewTracer(nil, time.Now)
		tr.KeepTail(1 << 12)
		cfg.Tracer = tr
	}
	var st *core.StreamStats
	digest, n, err := writeHashed(filepath.Join(out, fileV3), func(w io.Writer) error {
		var err error
		st, err = core.StreamSnapshot(cfg, true, w, nil)
		return err
	})
	if err != nil {
		return err
	}
	rep.Digests = map[string]string{"v3": digest}
	rep.Certs = st.Certs
	if !traced {
		return nil
	}
	lt := layerTimer{}
	for _, sp := range tr.Tail() {
		for _, m := range streamSpans {
			if sp.Name == m.span {
				lt[m.metric] += sp.Dur.Seconds()
			}
		}
	}
	reg := cfg.Obs
	lt["extsort.spilled_runs"] = float64(reg.Gauge("mem.spilled_runs").Value())
	lt["extsort.spilled_bytes"] = float64(reg.Gauge("mem.spilled_bytes").Value())
	lt["extsort.merge_fanin"] = float64(reg.Gauge("mem.merge_fanin").Value())
	lt["core.heap_high_water_mb"] = float64(reg.Gauge("mem.heap_high_water", obs.Volatile).Value()) / (1 << 20)
	snapshotCounts(lt, reg, n)
	rep.Layers = lt
	return nil
}

// writeHashed writes a file through fn and returns its SHA-256 and size.
func writeHashed(path string, fn func(io.Writer) error) (string, int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	h := sha256.New()
	cw := &countWriter{w: io.MultiWriter(f, h)}
	bw := bufio.NewWriterSize(cw, 1<<20)
	if err := fn(bw); err != nil {
		return "", 0, fmt.Errorf("write %s: %w", filepath.Base(path), err)
	}
	if err := bw.Flush(); err != nil {
		return "", 0, fmt.Errorf("write %s: %w", filepath.Base(path), err)
	}
	if err := f.Close(); err != nil {
		return "", 0, fmt.Errorf("write %s: %w", filepath.Base(path), err)
	}
	return hex.EncodeToString(h.Sum(nil)), cw.n, nil
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// keySet lists the keys a seed's snapshot holds, for the lookup script.
type keySet struct {
	Certs []string `json:"certs"` // hex fingerprints, corpus order
	SPKIs []string `json:"spkis"` // hex public-key fingerprints, sorted
	IPs   []string `json:"ips"`   // dotted quads observed in any scan, sorted
	ASNs  []int    `json:"asns"`  // AS numbers with at least one sighting, sorted
}

func writeKeys(path string, p *core.Pipeline) error {
	var ks keySet
	spkis := map[string]bool{}
	for _, rec := range p.Corpus.Certs() {
		ks.Certs = append(ks.Certs, rec.Cert.Fingerprint().String())
		spkis[rec.Cert.PublicKeyFingerprint().String()] = true
	}
	asOf := snapshot.InternetASOf(p.World.Internet)
	ips := map[netsim.IP]bool{}
	asns := map[int]bool{}
	for _, sc := range p.Corpus.Scans() {
		for _, o := range sc.Obs {
			ips[o.IP] = true
			if asn, ok := asOf(o.IP, sc.Time); ok {
				asns[asn] = true
			}
		}
	}
	for k := range spkis {
		ks.SPKIs = append(ks.SPKIs, k)
	}
	sort.Strings(ks.SPKIs)
	ipList := make([]netsim.IP, 0, len(ips))
	for ip := range ips {
		ipList = append(ipList, ip)
	}
	sort.Slice(ipList, func(i, j int) bool { return ipList[i] < ipList[j] })
	for _, ip := range ipList {
		ks.IPs = append(ks.IPs, ip.String())
	}
	for a := range asns {
		ks.ASNs = append(ks.ASNs, a)
	}
	sort.Ints(ks.ASNs)
	data, err := json.Marshal(ks)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
