// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload through the module's public functions, checks the outputs,
// and prints every metric with its unit; the last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": 3, "failed": 0, "metrics": {"setup_s": {"value": 0.002, "unit": "s"}, ...}}
//
// Workloads:
//
//	paper-pipeline  resident Generate → Scan → Validate → Lint → Link → Track,
//	                then the v3 snapshot and the lint column (core.DefaultConfig)
//	stream-build    core.StreamSnapshot to v3 on 2048-host chunks and a 4 MiB
//	                budget, so the chunk store and the snapshot writer spill
//	lookup-mixed    the certquery binary serving the seed's v3 snapshot and
//	                lint column to a closed loop over two keep-alive connections
//
// With -trace 0 the run reports the end-to-end metrics (cpu_us_per_item,
// setup_s, peak_rss_mb) and prints wall times and throughput; with -trace 1
// it reports the per-layer breakdown, timed from outside around each call
// into a layer. Batch work
// runs in child processes (this binary re-executed with "child" as its first
// argument) so set-up time and peak memory belong to the process doing the
// work. Inputs derive from -seed; the resident build of each seed is also the
// reference every other output is checked against, built once per binary and
// cached under <root>/.bench_build/prep/<binary digest>.
//
// perfbench/run.sh builds this program and cmd/certquery and passes -root
// and -certquery; see perfbench/meta.json for the seeds, the machine the
// bounds were set on, and which layer metric should move which end-to-end
// metric.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// Workload names, as BENCHMARK.json lists them.
const (
	wlPaper  = "paper-pipeline"
	wlStream = "stream-build"
	wlLookup = "lookup-mixed"
)

// options is one benchmark invocation.
type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	root      string            // checkout root; every file the run writes lives under it
	certquery string            // path to the built cmd/certquery binary
	scale     string            // "default" (the benchmark) or "tiny" (the self-test)
	self      string            // the executable re-run for child processes
	build     string            // hex SHA-256 of self, which embeds every package it runs
	layers    map[string]string // per-layer metric → unit, from BENCHMARK.json
}

// workDir is where the run's temporary files go.
func (o options) workDir() string { return filepath.Join(o.root, ".bench_build", "work") }

// prepDir caches the per-seed reference build. It is keyed by the digest of
// the benchmark binary, so two versions of the code built in one checkout
// never serve or check against each other's outputs.
func (o options) prepDir() string {
	return filepath.Join(o.root, ".bench_build", "prep", o.build[:16], fmt.Sprintf("%s-%d", o.scale, o.seed))
}

// fileDigest is the hex SHA-256 of a file.
func fileDigest(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{scale: "default"}
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+wlPaper+", "+wlStream+" or "+wlLookup)
	fs.Uint64Var(&o.seed, "seed", 1, "input seed (1 is the default configuration's world)")
	fs.Float64Var(&o.seconds, "seconds", 25, "how long to measure")
	fs.IntVar(&trace, "trace", 0, "1 reports the per-layer breakdown instead of the end-to-end metrics")
	fs.StringVar(&o.root, "root", ".", "root of the securepki checkout")
	fs.StringVar(&o.certquery, "certquery", "", "path to the built certquery binary (required for "+wlLookup+")")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive")
		return 2
	}
	root, err := filepath.Abs(o.root)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	o.root = root
	if _, err := os.Stat(filepath.Join(root, "cmd", "certquery")); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s is not a securepki checkout: %v\n", root, err)
		return 2
	}
	if o.self, err = os.Executable(); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if o.build, err = fileDigest(o.self); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if o.layers, err = declaredLayers(filepath.Join(root, "BENCHMARK.json")); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	res, err := runWorkload(o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := res.print(stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func runWorkload(o options, log io.Writer) (*result, error) {
	if err := os.MkdirAll(o.workDir(), 0o755); err != nil {
		return nil, err
	}
	switch o.workload {
	case wlPaper, wlStream:
		return runBatch(o, log)
	case wlLookup:
		if o.certquery == "" {
			return nil, fmt.Errorf("-certquery is required for %s", wlLookup)
		}
		return runLookup(o, log)
	}
	return nil, fmt.Errorf("unknown -workload %q (want %s, %s or %s)", o.workload, wlPaper, wlStream, wlLookup)
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run prints: the metrics, the operation counts behind
// failed_frac, and free-text lines (sample counts, machine context) that
// precede the JSON line.
type result struct {
	workload  string
	trace     bool
	attempted int
	failed    int
	metrics   map[string]metric
	notes     []string
}

func newResult(o options) *result {
	return &result{workload: o.workload, trace: o.trace, metrics: map[string]metric{}}
}

func (r *result) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check records one checked operation; a false ok is a failure, logged with
// its reason.
func (r *result) check(ok bool, log io.Writer, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(log, "perfbench: check failed: "+format+"\n", args...)
	}
}

func (r *result) print(w io.Writer) error {
	mode := "end-to-end"
	if r.trace {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "# workload %s, %s metrics\n", r.workload, mode)
	fmt.Fprintf(w, "# machine: nproc=%d GOMAXPROCS=%d %s %s/%s cpu=%q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, cpuModel())
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-40s %14.6g %s\n", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "%-40s %14.6g %s (failed %d of %d attempted)\n", "failed_frac", frac, "ratio", r.failed, r.attempted)
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// cpuModel names the processor for the machine-context line.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	const key = "model name"
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, key); ok {
			if _, model, ok := strings.Cut(name, ":"); ok {
				return strings.TrimSpace(model)
			}
		}
	}
	return "unknown"
}

// timeSince is seconds elapsed since t.
func timeSince(t time.Time) float64 { return time.Since(t).Seconds() }
