package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"securepki/internal/obs"
	"securepki/internal/querystore"
	"securepki/internal/snapshot"
)

// queryClock is the injected deterministic clock for the access-log golden:
// every call advances one second from a fixed epoch, so request timestamps
// and latencies are pure functions of call order.
func queryClock() func() time.Time {
	var mu sync.Mutex
	t := time.Date(2016, 4, 1, 0, 0, 0, 0, time.UTC)
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		t = t.Add(time.Second)
		return t
	}
}

// openTestStore writes a small corpus to a v3 file and opens a read store —
// the in-process half of startServer, for tests that drive the mux directly.
func openTestStore(tb testing.TB) *querystore.Store {
	tb.Helper()
	c := testCorpus(tb, 8, 1, 4)
	path := filepath.Join(tb.TempDir(), "corpus.v3")
	f, err := os.Create(path)
	if err != nil {
		tb.Fatal(err)
	}
	if err := snapshot.StreamCorpus(f, c, snapshot.Options{CertsPerShard: 4, ASOf: testASOf}, snapshot.StreamWriterConfig{V3: true}); err != nil {
		tb.Fatal(err)
	}
	if err := f.Close(); err != nil {
		tb.Fatal(err)
	}
	st, err := querystore.Open(path, querystore.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { st.Close() })
	return st
}

// TestAccessLogGolden pins the exact -access-log bytes under the injected
// clock: one JSON line per request with minted sequential request IDs, an
// incoming X-Request-Id honored verbatim, and the ID echoed back as a
// response header either way. The clock is called exactly twice per request
// (start, end), so every latency is one fake second.
func TestAccessLogGolden(t *testing.T) {
	st := openTestStore(t)
	reg := obs.NewRegistry()
	qs := newServer(st, nil, reg, queryClock())
	var logBuf bytes.Buffer
	qs.access = newAccessLogger(&logBuf)
	mux := qs.mux()

	do := func(path, reqID string) *httptest.ResponseRecorder {
		req := httptest.NewRequest("GET", path, nil)
		if reqID != "" {
			req.Header.Set("X-Request-Id", reqID)
		}
		rr := httptest.NewRecorder()
		mux.ServeHTTP(rr, req)
		return rr
	}

	r1 := do("/healthz", "")
	if r1.Code != http.StatusOK {
		t.Fatalf("/healthz: status %d", r1.Code)
	}
	if got := r1.Header().Get("X-Request-Id"); got != "req-000001" {
		t.Errorf("minted request ID not echoed: %q", got)
	}

	r2 := do("/v1/cert/zz", "client-abc")
	if r2.Code != http.StatusBadRequest {
		t.Fatalf("/v1/cert/zz: status %d", r2.Code)
	}
	if got := r2.Header().Get("X-Request-Id"); got != "client-abc" {
		t.Errorf("incoming request ID not echoed: %q", got)
	}

	absent := strings.Repeat("0", 64)
	r3 := do("/v1/cert/"+absent, "")
	if r3.Code != http.StatusNotFound {
		t.Fatalf("/v1/cert/%s: status %d", absent, r3.Code)
	}
	if got := r3.Header().Get("X-Request-Id"); got != "req-000002" {
		t.Errorf("second minted request ID = %q, want req-000002", got)
	}

	want := `{"time":"2016-04-01T00:00:01Z","method":"GET","route":"GET /healthz","path":"/healthz","status":200,"latency_us":1000000,"request_id":"req-000001"}` + "\n" +
		`{"time":"2016-04-01T00:00:03Z","method":"GET","route":"GET /v1/cert/{fp}","path":"/v1/cert/zz","status":400,"latency_us":1000000,"request_id":"client-abc"}` + "\n" +
		`{"time":"2016-04-01T00:00:05Z","method":"GET","route":"GET /v1/cert/{fp}","path":"/v1/cert/` + absent + `","status":404,"latency_us":1000000,"request_id":"req-000002"}` + "\n"
	if got := logBuf.String(); got != want {
		t.Errorf("access log bytes:\n%s\nwant:\n%s", got, want)
	}
}

// TestWrapJournals5xx drives the wrap layer with a handler that fails: a 500
// must emit a query.5xx journal event carrying the route pattern, status and
// request ID, while the access line still records the request. The journal
// bytes are pinned under the injected clock.
func TestWrapJournals5xx(t *testing.T) {
	reg := obs.NewRegistry()
	clock := queryClock()
	s := newServer(nil, nil, reg, clock)
	var jbuf, lbuf bytes.Buffer
	s.journal = obs.NewJournal(&jbuf, clock, 4)
	s.access = newAccessLogger(&lbuf)

	h := s.wrap("GET /v1/cert/{fp}", func(w http.ResponseWriter, r *http.Request) int {
		return writeErr(w, http.StatusInternalServerError, "shard read failed")
	})
	rr := httptest.NewRecorder()
	h(rr, httptest.NewRequest("GET", "/v1/cert/feed", nil))
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rr.Code)
	}

	wantEvent := `{"seq":1,"time":"2016-04-01T00:00:03Z","type":"query.5xx","attrs":{"request_id":"req-000001","route":"GET /v1/cert/{fp}","status":"500"}}` + "\n"
	if got := jbuf.String(); got != wantEvent {
		t.Errorf("journal bytes:\n%s\nwant:\n%s", got, wantEvent)
	}
	if err := obs.ValidateEvents(jbuf.Bytes()); err != nil {
		t.Errorf("query.5xx event fails schema: %v", err)
	}
	if !strings.Contains(lbuf.String(), `"status":500`) {
		t.Errorf("access line missing the 500: %s", lbuf.String())
	}

	// A healthy request must journal nothing: the event stream is a fault
	// log, not a second access log.
	ok := s.wrap("GET /healthz", func(w http.ResponseWriter, r *http.Request) int {
		return writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	ok(httptest.NewRecorder(), httptest.NewRequest("GET", "/healthz", nil))
	if got := jbuf.String(); got != wantEvent {
		t.Errorf("healthy request grew the journal:\n%s", got)
	}
}
