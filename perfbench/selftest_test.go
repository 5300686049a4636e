package main

// Self-test at tiny scale: every metric BENCHMARK.json declares is emitted
// with its unit on every workload in both modes, and a corrupted digest or a
// wrong server response raises failed_frac. Run from perfbench/:
//
//	go test ./...

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// testDir holds the certquery binary the tests share; TestMain removes it.
var testDir string

// TestMain lets the test binary serve as the benchmark's child process.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	testDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// printed is the JSON line a run ends with.
type printed struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// declared reads BENCHMARK.json's metric lists as name → unit.
func declared(t *testing.T) (e2e, layer map[string]string) {
	t.Helper()
	path := filepath.Join("..", "BENCHMARK.json")
	layer, err := declaredLayers(path)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	e2e = map[string]string{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	return e2e, layer
}

// tinyOptions runs the benchmark at tiny scale inside a temporary root.
func tinyOptions(t *testing.T, root, workload string, trace bool) options {
	t.Helper()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	build, err := fileDigest(self)
	if err != nil {
		t.Fatal(err)
	}
	_, layers := declared(t)
	return options{workload: workload, seed: 3, seconds: 0.3, trace: trace, root: root,
		certquery: certqueryBinary(t), scale: "tiny", self: self, build: build, layers: layers}
}

// certqueryBinary builds cmd/certquery once per test binary.
func certqueryBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(testDir, "certquery")
	if _, err := os.Stat(bin); err == nil {
		return bin
	}
	out, err := exec.Command("go", "build", "-o", bin, "securepki/cmd/certquery").CombinedOutput()
	if err != nil {
		t.Fatalf("build certquery: %v\n%s", err, out)
	}
	return bin
}

func runPrinted(t *testing.T, o options) printed {
	t.Helper()
	res, err := runWorkload(o, os.Stderr)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", o.workload, o.trace, err)
	}
	var buf bytes.Buffer
	if err := res.print(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var p printed
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &p); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	return p
}

func TestEveryMetricEmitted(t *testing.T) {
	e2e, layer := declared(t)
	root := t.TempDir()
	for _, wl := range []string{wlPaper, wlStream, wlLookup} {
		for _, trace := range []bool{false, true} {
			p := runPrinted(t, tinyOptions(t, root, wl, trace))
			if !p.Correct || p.Failed != 0 || p.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", wl, trace, p.Correct, p.Failed, p.Attempted)
			}
			want := e2e
			if trace {
				want = layer
			}
			if len(p.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl, trace, len(p.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := p.Metrics[name]
				if !ok || m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", wl, trace, name, m, unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl, name, m.Value)
				}
			}
		}
	}
}

func TestCorruptDigestRaisesFailures(t *testing.T) {
	root := t.TempDir()
	o := tinyOptions(t, root, wlPaper, false)
	if p := runPrinted(t, o); !p.Correct {
		t.Fatalf("clean run failed: %+v", p)
	}

	// A wrong pinned digest fails the pin check.
	key := pinKey{o.scale, o.seed}
	pinnedDigests[key] = map[string]string{"summary": "00", "v3": "00", "lintcol": "00"}
	defer delete(pinnedDigests, key)
	p := runPrinted(t, o)
	if p.Correct || p.Failed != 3 {
		t.Errorf("corrupted pins: correct=%v failed=%d, want false and 3", p.Correct, p.Failed)
	}
	delete(pinnedDigests, key)

	// A reference that disagrees with the build fails every build.
	refPath := filepath.Join(o.prepDir(), fileRef)
	data, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}
	var ref reference
	if err := json.Unmarshal(data, &ref); err != nil {
		t.Fatal(err)
	}
	for _, wl := range []string{wlPaper, wlStream} {
		bad := reference{Digests: map[string]string{}, Certs: ref.Certs}
		for k, v := range ref.Digests {
			bad.Digests[k] = v
		}
		bad.Digests["v3"] = strings.Repeat("0", 64)
		data, _ := json.Marshal(bad)
		if err := os.WriteFile(refPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		p := runPrinted(t, tinyOptions(t, root, wl, false))
		if p.Correct || p.Failed == 0 || p.Failed != p.Attempted {
			t.Errorf("%s against a corrupted reference: correct=%v failed=%d of %d, want every build failed", wl, p.Correct, p.Failed, p.Attempted)
		}
	}
}

func TestWrongResponseFails(t *testing.T) {
	const fp = "aa00000000000000000000000000000000000000000000000000000000000000"
	present := request{routeCert, fp, true}
	absent := request{routeCert, fp, false}
	cases := []struct {
		name   string
		req    request
		status int
		body   string
		ok     bool
	}{
		{"echoes key", present, 200, "{\n  \"fingerprint\": \"" + fp + "\",\n  \"spki\": \"x\"\n}\n", true},
		{"absent is 404", absent, 404, notFoundBody, true},
		{"wrong key", present, 200, "{\n  \"fingerprint\": \"bb" + fp[2:] + "\"\n}\n", false},
		{"server error", present, 500, "{\n  \"error\": \"boom\"\n}\n", false},
		{"present answered 404", present, 404, notFoundBody, false},
		{"absent answered 200", absent, 200, "{\n  \"fingerprint\": \"" + fp + "\"\n}\n", false},
		{"absent with wrong body", absent, 404, "{}\n", false},
	}
	for _, tc := range cases {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != routePaths[tc.req.route]+tc.req.key {
				w.WriteHeader(http.StatusTeapot)
				return
			}
			w.WriteHeader(tc.status)
			fmt.Fprint(w, tc.body)
		}))
		g := newLoadGen(srv.URL, []request{tc.req})
		g.session(3)
		g.close()
		srv.Close()
		res := &result{metrics: map[string]metric{}}
		for _, ok := range g.ok {
			res.check(ok, os.Stderr, "%s", tc.name)
		}
		wantFailed := 0
		if !tc.ok {
			wantFailed = 3
		}
		if res.failed != wantFailed || res.attempted != 3 {
			t.Errorf("%s: failed %d of %d, want %d of 3", tc.name, res.failed, res.attempted, wantFailed)
		}
	}
}

func TestUndeclaredLayerMetricFails(t *testing.T) {
	layers := map[string]string{"a_s": "s", "b": "count"}
	for _, tc := range []struct {
		name, unit string
		ok         bool
	}{{"a_s", "s", true}, {"a_s", "ms", false}, {"c", "count", false}} {
		res := &result{metrics: map[string]metric{}}
		res.set(tc.name, tc.unit, 1)
		err := finishPerLayer(res, layers)
		if (err == nil) != tc.ok {
			t.Errorf("%s (%s): err %v, want ok=%v", tc.name, tc.unit, err, tc.ok)
		}
		if err == nil && len(res.metrics) != len(layers) {
			t.Errorf("%s: %d metrics after filling, want %d", tc.name, len(res.metrics), len(layers))
		}
	}
}

func TestLayerMapCoversPerLayer(t *testing.T) {
	data, err := os.ReadFile("meta.json")
	if err != nil {
		t.Fatal(err)
	}
	var meta struct {
		LayerMap []struct{ Metrics []string } `json:"layer_map"`
	}
	if err := json.Unmarshal(data, &meta); err != nil {
		t.Fatal(err)
	}
	_, layer := declared(t)
	seen := map[string]bool{}
	for _, row := range meta.LayerMap {
		for _, m := range row.Metrics {
			if _, ok := layer[m]; !ok || seen[m] {
				t.Errorf("meta.json layer_map: %s is not a per-layer metric, or is listed twice", m)
			}
			seen[m] = true
		}
	}
	for m := range layer {
		if !seen[m] {
			t.Errorf("meta.json layer_map does not map %s", m)
		}
	}
}
