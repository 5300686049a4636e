package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

const (
	// setupProbes is how many extra start-up-only children a batch run
	// launches, so setup_s is a median over enough samples to be steady.
	setupProbes = 50
	// minBuilds is the fewest untraced builds an untraced run reports the
	// median of, even when they take longer than the measuring time.
	minBuilds = 3
)

// childRun is what the parent measured about one child process.
type childRun struct {
	rep    childReport
	wall   float64 // launch → exit, seconds
	setup  float64 // launch → first stage, seconds
	rssMB  float64 // peak resident set of the child
	cpu    float64 // user+system CPU seconds of the child
	failed bool    // the child exited non-zero
}

// launchChild runs this binary in child mode and measures it from outside.
func launchChild(o options, mode string, traced bool, out string, log io.Writer) (childRun, error) {
	var cr childRun
	args := []string{"child", "-mode", mode, "-seed", strconv.FormatUint(o.seed, 10),
		"-scale", o.scale, "-trace=" + strconv.FormatBool(traced), "-out", out}
	cmd := exec.Command(o.self, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = log
	t0 := time.Now()
	err := cmd.Run()
	cr.wall = timeSince(t0)
	if err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			return cr, fmt.Errorf("child %s: %w", mode, err)
		}
		cr.failed = true
		return cr, nil
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		cr.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		cr.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	}
	line := bytes.TrimSpace(stdout.Bytes())
	if i := bytes.LastIndexByte(line, '\n'); i >= 0 {
		line = line[i+1:]
	}
	if err := json.Unmarshal(line, &cr.rep); err != nil {
		return cr, fmt.Errorf("child %s: bad report %q: %w", mode, line, err)
	}
	cr.setup = float64(cr.rep.StageStart-t0.UnixNano()) / 1e9
	return cr, nil
}

// reference is the per-seed resident build every output is checked against.
type reference struct {
	Digests map[string]string `json:"digests"`
	Certs   int               `json:"certs"`
}

// ensurePrep returns the seed's reference build, running it once per seed
// and benchmark binary. Preparation is outside every metric.
func ensurePrep(o options, log io.Writer) (reference, error) {
	var ref reference
	dir := o.prepDir()
	if data, err := os.ReadFile(filepath.Join(dir, fileRef)); err == nil {
		if err := json.Unmarshal(data, &ref); err == nil {
			return ref, nil
		}
	}
	tmp := dir + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return ref, err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return ref, err
	}
	fmt.Fprintf(log, "perfbench: preparing reference build for seed %d (%s scale)\n", o.seed, o.scale)
	cr, err := launchChild(o, modePrep, false, tmp, log)
	if err != nil {
		return ref, err
	}
	if cr.failed {
		return ref, fmt.Errorf("reference build for seed %d failed", o.seed)
	}
	ref = reference{Digests: cr.rep.Digests, Certs: cr.rep.Certs}
	data, err := json.Marshal(ref)
	if err != nil {
		return ref, err
	}
	if err := os.WriteFile(filepath.Join(tmp, fileRef), data, 0o644); err != nil {
		return ref, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return ref, err
	}
	return ref, os.Rename(tmp, dir)
}

// checkPins compares the reference build against the digests pinned for
// this scale and seed, if any; a mismatch is one failed operation.
func checkPins(res *result, o options, ref reference, log io.Writer) {
	pin, ok := pinnedDigests[pinKey{o.scale, o.seed}]
	if !ok {
		return
	}
	for _, name := range []string{"summary", "v3", "lintcol"} {
		res.check(ref.Digests[name] == pin[name], log,
			"seed %d %s digest %s, pinned %s", o.seed, name, ref.Digests[name], pin[name])
	}
}

// runBatch measures paper-pipeline or stream-build: set-up probes, then
// builds until the measuring time is spent. A traced run alternates untraced
// and traced builds so the tracing overhead is measured in the same run.
func runBatch(o options, log io.Writer) (*result, error) {
	res := newResult(o)
	ref, err := ensurePrep(o, log)
	if err != nil {
		return nil, err
	}
	checkPins(res, o, ref, log)
	mode, outputs := modePaper, []string{"summary", "v3", "lintcol"}
	if o.workload == wlStream {
		mode, outputs = modeStream, []string{"v3"}
	}
	out := filepath.Join(o.workDir(), fmt.Sprintf("%s-%d", mode, os.Getpid()))
	defer os.RemoveAll(out)

	var setups []float64
	for i := 0; i < setupProbes; i++ {
		cr, err := launchChild(o, modeProbe, false, out, log)
		if err != nil {
			return nil, err
		}
		if cr.failed {
			return nil, fmt.Errorf("set-up probe failed")
		}
		setups = append(setups, cr.setup)
	}

	var walls, rss, rates, cpuPerCert, tracedWalls, overheads []float64
	layers := map[string][]float64{}
	start := time.Now()
	for i := 0; ; i++ {
		// A traced run makes (untraced, traced) pairs; the pair's difference
		// is one tracing-overhead sample.
		traced := o.trace && i%2 == 1
		if err := os.RemoveAll(out); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(out, 0o755); err != nil {
			return nil, err
		}
		cr, err := launchChild(o, mode, traced, out, log)
		if err != nil {
			return nil, err
		}
		ok := !cr.failed && cr.rep.Certs == ref.Certs
		for _, name := range outputs {
			ok = ok && cr.rep.Digests[name] == ref.Digests[name]
		}
		res.check(ok, log, "%s build %d (traced=%v): certs %d digests %v, reference certs %d digests %v",
			o.workload, i, traced, cr.rep.Certs, cr.rep.Digests, ref.Certs, ref.Digests)
		if !cr.failed {
			setups = append(setups, cr.setup)
			if traced {
				tracedWalls = append(tracedWalls, cr.wall)
				overheads = append(overheads, cr.wall-walls[len(walls)-1])
				for k, v := range cr.rep.Layers {
					layers[k] = append(layers[k], v)
				}
			} else {
				walls = append(walls, cr.wall)
				rss = append(rss, cr.rssMB)
				rates = append(rates, float64(cr.rep.Certs)/cr.wall)
				cpuPerCert = append(cpuPerCert, cr.cpu/float64(cr.rep.Certs)*1e6)
			}
		} else if !traced && o.trace {
			i++ // skip the pair's traced half: its overhead needs this wall
		}
		spent := timeSince(start) >= o.seconds
		if o.trace && spent && i%2 == 1 {
			break
		}
		if !o.trace && spent && (len(walls) >= minBuilds || i+1 >= 2*minBuilds) {
			break
		}
	}
	if len(walls) == 0 || (o.trace && len(tracedWalls) == 0) {
		return nil, fmt.Errorf("%s: no build completed", o.workload)
	}
	res.note("%d untraced and %d traced builds of %d certs, %d set-up samples",
		len(walls), len(tracedWalls), ref.Certs, len(setups))
	res.note("untraced build walls (s): %.3f", walls)
	res.note("wall_s %.4f s, certs_per_s %.1f 1/s (medians over untraced builds)", median(walls), median(rates))
	if !o.trace {
		// CPU time, not wall time, is the gated cost: hypervisor steal on a
		// shared VM moves wall time far more than the bounds (meta.json).
		res.set("cpu_us_per_item", "us", median(cpuPerCert))
		res.set("setup_s", "s", median(setups))
		res.set("peak_rss_mb", "MB", median(rss))
		return res, nil
	}
	for k, v := range layers {
		res.set(k, o.layers[k], median(v))
	}
	prefix := "bench.paper_"
	var stages []string
	if mode == modeStream {
		prefix = "bench.stream_"
		for _, m := range streamSpans {
			stages = append(stages, m.metric)
		}
	} else {
		stages = paperStages
	}
	sum := 0.0
	for _, s := range stages {
		sum += res.metrics[s].Value
	}
	tw := median(tracedWalls)
	res.set(prefix+"traced_wall_s", "s", tw)
	res.set(prefix+"untraced_wall_s", "s", median(walls))
	res.set(prefix+"trace_overhead_s", "s", median(overheads))
	res.set(prefix+"stage_sum_s", "s", sum)
	res.set(prefix+"unattributed_s", "s", tw-sum)
	return res, finishPerLayer(res, o.layers)
}

// paperStages are the timed calls that make up a traced resident build.
var paperStages = []string{
	"devicesim.build_world_s", "scanner.campaign_run_s", "truststore.validate_s",
	"analysis.dataset_s", "certlint.run_corpus_s", "linking.link_s", "tracking.tracker_s",
	"snapshot.write_v3_s", "snapshot.write_lintcol_s", "bench.check_s",
}
