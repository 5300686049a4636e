package main

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"securepki/internal/netsim"
	"securepki/internal/obs"
	"securepki/internal/querystore"
	"securepki/internal/snapshot"
	"securepki/internal/stats"
	"securepki/internal/x509lite"
)

// Lookup load shape.
const (
	lookupClients  = 2       // closed-loop callers, one keep-alive connection each
	sessionLookups = 1000    // lookups in one timed session (the unit of work)
	warmupLookups  = 500     // untimed lookups before the first session
	serverLaunches = 15      // certquery start-ups per run; setup_s is their median
	cacheShards    = 16      // certquery's default -cache
	scriptLen      = 1 << 17 // requests drawn per seed, replayed from the start if a run outlasts them
)

// Routes of the request mix.
const (
	routeCert = iota
	routeSPKI
	routeIP
	routeAS
	routeLint
	numRoutes
)

var routePaths = [numRoutes]string{"/v1/cert/", "/v1/spki/", "/v1/ip/", "/v1/as/", "/v1/lint/"}

// request is one scripted lookup. An absent key must answer 404.
type request struct {
	route   int
	key     string
	present bool
}

// wantPrefix is how a 200 body starts: certquery pretty-prints its JSON and
// every route echoes the requested key first.
func (r request) wantPrefix() string {
	field := "fingerprint"
	switch r.route {
	case routeSPKI, routeAS:
		field = "key"
	case routeIP:
		field = "ip"
	}
	return "{\n  \"" + field + "\": \"" + r.key + "\""
}

const notFoundBody = "{\n  \"error\": \"not found\"\n}\n"

// makeScript draws the request sequence from the seed: 55% /v1/cert drawn
// uniformly over all fingerprints, 15% /v1/spki, 15% /v1/ip, 5% /v1/as, 5%
// /v1/lint, and 5% absent keys spread over the five routes. The mix is an
// assumption, not a recording of real traffic (meta.json, mix_source).
func makeScript(ks *keySet, seed uint64, n int) []request {
	rng := stats.NewRNG(seed ^ 0x6c6f6f6b7570) // "lookup"
	ips := make(map[string]bool, len(ks.IPs))
	for _, ip := range ks.IPs {
		ips[ip] = true
	}
	asns := make(map[int]bool, len(ks.ASNs))
	for _, a := range ks.ASNs {
		asns[a] = true
	}
	randHex := func() string {
		var b [32]byte
		for i := range b {
			b[i] = byte(rng.Uint32())
		}
		return hex.EncodeToString(b[:])
	}
	script := make([]request, n)
	for i := range script {
		u := rng.Intn(100)
		switch {
		case u < 55:
			script[i] = request{routeCert, ks.Certs[rng.Intn(len(ks.Certs))], true}
		case u < 70:
			script[i] = request{routeSPKI, ks.SPKIs[rng.Intn(len(ks.SPKIs))], true}
		case u < 85:
			script[i] = request{routeIP, ks.IPs[rng.Intn(len(ks.IPs))], true}
		case u < 90:
			script[i] = request{routeAS, strconv.Itoa(ks.ASNs[rng.Intn(len(ks.ASNs))]), true}
		case u < 95:
			script[i] = request{routeLint, ks.Certs[rng.Intn(len(ks.Certs))], true}
		default:
			r := request{route: rng.Intn(numRoutes)}
			switch r.route {
			case routeIP:
				for r.key == "" || ips[r.key] {
					r.key = netsim.IP(rng.Uint32()).String()
				}
			case routeAS:
				asn := 0
				for asn == 0 || asns[asn] {
					asn = 1<<31 + rng.Intn(1<<30)
				}
				r.key = strconv.Itoa(asn)
			default:
				r.key = randHex()
			}
			script[i] = r
		}
	}
	return script
}

// server is one running certquery process.
type server struct {
	cmd  *exec.Cmd
	base string
}

// startServer launches certquery and waits until /healthz answers; the
// returned duration is the set-up time.
func startServer(o options, snap, lint string, wantCerts int, log io.Writer) (*server, float64, error) {
	cmd := exec.Command(o.certquery, "-corpus", snap, "-lint", lint, "-addr", "127.0.0.1:0",
		"-cache", strconv.Itoa(cacheShards))
	cmd.Stderr = log
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start certquery: %w", err)
	}
	s := &server{cmd: cmd}
	addr := make(chan string, 1)
	go func() {
		line, _ := bufio.NewReader(out).ReadString('\n')
		addr <- strings.TrimSpace(line)
	}()
	select {
	case a := <-addr:
		s.base = "http://" + a
	case <-time.After(60 * time.Second):
		s.stop()
		return nil, 0, fmt.Errorf("certquery printed no address within 60s")
	}
	if s.base == "http://" {
		s.stop()
		return nil, 0, fmt.Errorf("certquery exited before listening")
	}
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			var h struct {
				Status string `json:"status"`
				Certs  int    `json:"certs"`
			}
			derr := json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && derr == nil {
				setup := timeSince(t0)
				if h.Status != "ok" || h.Certs != wantCerts {
					s.stop()
					return nil, 0, fmt.Errorf("certquery /healthz: status %q, %d certs, want ok and %d", h.Status, h.Certs, wantCerts)
				}
				return s, setup, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, 0, fmt.Errorf("certquery /healthz did not answer within 30s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// peakRSSMB reads the server's VmHWM.
func (s *server) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}

// cpuSeconds reads the server's user+system CPU time from /proc/<pid>/stat,
// in USER_HZ ticks (100 per second on Linux).
func (s *server) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is field 3, so
	// utime (14) and stime (15) are the 12th and 13th after it.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("bad /proc/%d/stat: %q", s.cmd.Process.Pid, data)
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", s.cmd.Process.Pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat: %q", s.cmd.Process.Pid, data)
	}
	return (utime + stime) / 100, nil
}

// stop terminates the server and waits for it to exit.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // already exited is fine: Wait reports it
	done := make(chan struct{})
	go func() {
		_ = s.cmd.Wait() // a SIGTERM exit status is expected
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
	}
}

// loadGen drives the script against a server from lookupClients callers.
type loadGen struct {
	base    string
	script  []request
	clients [lookupClients]*http.Client
	next    int // script index of the next session's first request

	// Per request, in script order: latency and outcome.
	lat []float64 // seconds
	ok  []bool
}

func newLoadGen(base string, script []request) *loadGen {
	g := &loadGen{base: base, script: script}
	for i := range g.clients {
		g.clients[i] = &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true},
		}
	}
	return g
}

func (g *loadGen) close() {
	for _, c := range g.clients {
		c.CloseIdleConnections()
	}
}

// session runs n lookups in a closed loop — each caller sends its next
// request when the previous reply is read — and returns its wall time.
func (g *loadGen) session(n int) float64 {
	first := g.next
	g.next += n
	g.lat = append(g.lat, make([]float64, n)...)
	g.ok = append(g.ok, make([]bool, n)...)
	var cursor atomic.Int64
	cursor.Store(int64(first))
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < lookupClients; c++ {
		wg.Add(1)
		go func(client *http.Client) {
			defer wg.Done()
			var body bytes.Buffer
			for {
				i := int(cursor.Add(1) - 1)
				if i >= first+n {
					return
				}
				r := g.script[i%len(g.script)]
				t := time.Now()
				g.ok[i] = g.do(client, r, &body)
				g.lat[i] = timeSince(t)
			}
		}(g.clients[c])
	}
	wg.Wait()
	return timeSince(t0)
}

// do sends one lookup and checks the reply: 200 echoing the key for a
// present key, 404 "not found" for an absent one. Anything else — a 5xx, an
// unexpected status, a wrong body — is a failure.
func (g *loadGen) do(client *http.Client, r request, body *bytes.Buffer) bool {
	resp, err := client.Get(g.base + routePaths[r.route] + r.key)
	if err != nil {
		return false
	}
	body.Reset()
	_, err = body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return false
	}
	if r.present {
		return resp.StatusCode == http.StatusOK && bytes.HasPrefix(body.Bytes(), []byte(r.wantPrefix()))
	}
	return resp.StatusCode == http.StatusNotFound && body.String() == notFoundBody
}

// lookupInputs is a prepared seed on disk.
type lookupInputs struct {
	snap, lint string
	keys       *keySet
	certs      int
}

func loadLookupInputs(o options, log io.Writer) (*lookupInputs, reference, error) {
	ref, err := ensurePrep(o, log)
	if err != nil {
		return nil, ref, err
	}
	dir := o.prepDir()
	in := &lookupInputs{snap: filepath.Join(dir, fileV3), lint: filepath.Join(dir, fileLintCol), certs: ref.Certs}
	data, err := os.ReadFile(filepath.Join(dir, fileKeys))
	if err != nil {
		return nil, ref, err
	}
	in.keys = &keySet{}
	if err := json.Unmarshal(data, in.keys); err != nil {
		return nil, ref, fmt.Errorf("%s: %w", fileKeys, err)
	}
	if len(in.keys.Certs) == 0 || len(in.keys.SPKIs) == 0 || len(in.keys.IPs) == 0 || len(in.keys.ASNs) == 0 {
		return nil, ref, fmt.Errorf("%s: empty key set", fileKeys)
	}
	return in, ref, nil
}

// runLookup measures lookup-mixed: serverLaunches start-ups of certquery,
// then timed sessions against the last one until the measuring time is
// spent. A traced run adds the HTTP latency breakdown and replays the same
// requests in-process against querystore and the lint column.
func runLookup(o options, log io.Writer) (*result, error) {
	res := newResult(o)
	in, ref, err := loadLookupInputs(o, log)
	if err != nil {
		return nil, err
	}
	checkPins(res, o, ref, log)
	script := makeScript(in.keys, o.seed, scriptLen)

	var setups []float64
	var srv *server
	for i := 0; i < serverLaunches; i++ {
		s, setup, err := startServer(o, in.snap, in.lint, in.certs, log)
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup)
		if i < serverLaunches-1 {
			s.stop()
		} else {
			srv = s
		}
	}
	// A traced run spends half its time on HTTP and then replays the same
	// requests in-process, which is slower: it runs on one goroutine.
	loadSeconds := o.seconds
	if o.trace {
		loadSeconds /= 2
	}
	g := newLoadGen(srv.base, script)
	g.session(warmupLookups)
	timedFrom := g.next
	cpu0, err0 := srv.cpuSeconds()
	var sessions []float64
	start := time.Now()
	for timeSince(start) < loadSeconds {
		sessions = append(sessions, g.session(sessionLookups))
	}
	cpu1, err1 := srv.cpuSeconds()
	rss, err := srv.peakRSSMB()
	g.close()
	srv.stop()
	for _, e := range []error{err0, err1, err} {
		if e != nil {
			return nil, e
		}
	}

	for i, ok := range g.ok {
		r := script[i%len(script)]
		res.check(ok, log, "lookup %d: %s%s (present=%v)", i, routePaths[r.route], r.key, r.present)
	}
	total := 0.0
	for _, s := range sessions {
		total += s
	}
	timed := g.next - timedFrom
	lat := httpLatencies(g, script, timedFrom)
	res.note("%d lookups in %d sessions of %d over %d keep-alive connections (closed loop), after %d warm-up lookups; %d server start-ups",
		timed, len(sessions), sessionLookups, lookupClients, warmupLookups, len(setups))
	res.note("keys: %d certs, %d SPKIs, %d IPs, %d ASes; certquery -cache %d", len(in.keys.Certs), len(in.keys.SPKIs), len(in.keys.IPs), len(in.keys.ASNs), cacheShards)
	for _, d := range []string{"lookup", "cert", "indexonly"} {
		res.note("%s_p50_ms %.4f  %s_p99_ms %.4f  (n=%d)", d, lat[d+"_p50"], d, lat[d+"_p99"], int(lat[d+"_n"]))
	}
	res.note("wall_s %.4f s per session, lookups_per_s %.1f 1/s", median(sessions), float64(timed)/total)
	if !o.trace {
		res.set("cpu_us_per_item", "us", (cpu1-cpu0)/float64(timed)*1e6)
		res.set("setup_s", "s", median(setups))
		res.set("peak_rss_mb", "MB", rss)
		return res, nil
	}
	res.set("certquery.lookups_per_s", "1/s", float64(timed)/total)
	for _, d := range []string{"lookup", "cert", "indexonly"} {
		res.set("certquery."+d+"_p50_ms", "ms", lat[d+"_p50"])
		res.set("certquery."+d+"_p99_ms", "ms", lat[d+"_p99"])
		res.set("certquery."+d+"_samples", "count", lat[d+"_n"])
	}
	inproc, err := replay(res, in, script, timedFrom, g.next, log)
	if err != nil {
		return nil, err
	}
	res.set("certquery.http_overhead_p50_us", "us", lat["lookup_p50"]*1e3-inproc)
	return res, finishPerLayer(res, o.layers)
}

// httpLatencies summarises the timed lookups' latencies in ms: all routes,
// /v1/cert alone, and the index-only routes.
func httpLatencies(g *loadGen, script []request, from int) map[string]float64 {
	var all, cert, idx []float64
	for i := from; i < g.next; i++ {
		ms := g.lat[i] * 1e3
		all = append(all, ms)
		if script[i%len(script)].route == routeCert {
			cert = append(cert, ms)
		} else {
			idx = append(idx, ms)
		}
	}
	out := map[string]float64{}
	for name, xs := range map[string][]float64{"lookup": all, "cert": cert, "indexonly": idx} {
		out[name+"_p50"] = quantile(xs, 0.50)
		out[name+"_p99"] = quantile(xs, 0.99)
		out[name+"_n"] = float64(len(xs))
	}
	return out
}

// replay opens the snapshot and lint column in-process and replays script
// requests [from, to), timing each store call. It returns the all-route p50
// in microseconds for the HTTP-overhead figure.
func replay(res *result, in *lookupInputs, script []request, from, to int, log io.Writer) (float64, error) {
	reg := obs.NewRegistry()
	t := time.Now()
	st, err := querystore.Open(in.snap, querystore.Options{CacheShards: cacheShards, Obs: reg})
	if err != nil {
		return 0, err
	}
	defer st.Close()
	res.set("querystore.open_s", "s", timeSince(t))
	t = time.Now()
	lc, err := snapshot.ReadLintColumnFile(in.lint)
	if err != nil {
		return 0, err
	}
	res.set("snapshot.read_lintcol_s", "s", timeSince(t))

	var byRoute [numRoutes][]float64
	var all []float64
	for i := from; i < to; i++ {
		r := script[i%len(script)]
		found, us, err := lookupInProcess(st, lc, r)
		if err != nil {
			return 0, err
		}
		res.check(found == r.present, log, "in-process %s%s: found=%v, present=%v", routePaths[r.route], r.key, found, r.present)
		byRoute[r.route] = append(byRoute[r.route], us)
		all = append(all, us)
	}
	names := [numRoutes]string{"querystore.by_fingerprint", "querystore.by_spki", "querystore.by_ip", "querystore.by_as", "snapshot.lint_findings"}
	for rt, name := range names {
		res.set(name+"_p99_us", "us", quantile(byRoute[rt], 0.99))
		res.set(name+"_samples", "count", float64(len(byRoute[rt])))
	}
	res.set("querystore.by_fingerprint_p50_us", "us", quantile(byRoute[routeCert], 0.50))

	hits := reg.Counter("query.cache.hit", obs.Volatile).Value()
	misses := reg.Counter("query.cache.miss", obs.Volatile).Value()
	res.set("querystore.cache_hits", "count", float64(hits))
	res.set("querystore.cache_misses", "count", float64(misses))
	res.set("querystore.cache_evictions", "count", float64(reg.Counter("query.cache.evict", obs.Volatile).Value()))
	res.set("querystore.inflate_bytes", "B", float64(reg.Counter("query.cache.inflate_raw_bytes", obs.Volatile).Value()))
	res.set("querystore.cache_lookups", "count", float64(hits+misses))
	if hits+misses > 0 {
		res.set("querystore.cache_hit_ratio", "ratio", float64(hits)/float64(hits+misses))
	}
	res.note("cache hit ratio %d/%d shard reads (-cache %d)", hits, hits+misses, cacheShards)
	return quantile(all, 0.50), nil
}

// lookupInProcess makes the store call a route's handler makes and times it
// in microseconds; key parsing is outside the timed region.
func lookupInProcess(st *querystore.Store, lc *snapshot.LintColumn, r request) (bool, float64, error) {
	var found bool
	var err error
	var t time.Time
	switch r.route {
	case routeCert, routeSPKI, routeLint:
		var fp x509lite.Fingerprint
		raw, herr := hex.DecodeString(r.key)
		if herr != nil || len(raw) != len(fp) {
			return false, 0, fmt.Errorf("bad scripted key %q", r.key)
		}
		copy(fp[:], raw)
		t = time.Now()
		switch r.route {
		case routeCert:
			_, found, err = st.ByFingerprint(fp)
		case routeSPKI:
			_, found, err = st.BySPKI(fp)
		default:
			_, found = lc.Findings(fp)
		}
	case routeIP:
		ip, perr := netsim.ParseIP(r.key)
		if perr != nil {
			return false, 0, perr
		}
		t = time.Now()
		_, found, err = st.ByIP(ip)
	case routeAS:
		asn, perr := strconv.Atoi(r.key)
		if perr != nil {
			return false, 0, perr
		}
		t = time.Now()
		_, found, err = st.ByAS(asn)
	}
	us := float64(time.Since(t).Nanoseconds()) / 1e3
	return found, us, err
}
