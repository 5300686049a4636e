// Package debugsrv is the opt-in debug endpoint the cmd/* binaries share
// behind -debug-addr. It lives under cmd/ because it imports expvar and
// net/http/pprof, which register process-global handlers on
// http.DefaultServeMux at import time; repolint bans those imports from
// internal/, so only a binary that links this package carries them.
package debugsrv

import (
	_ "expvar" // registers /debug/vars (cmdline, memstats) on the default mux
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the default mux
	"os"

	"securepki/internal/obs"
)

// Start binds addr and serves the telemetry surface (/metrics Prometheus
// exposition, /samples time series, /events journal tail, /statusz operator
// page) on its own mux, with /debug/ delegated to http.DefaultServeMux where
// expvar and pprof registered themselves. The listener lives for the whole
// process; a serve error is reported on stderr under tel.Cmd and never stops
// the caller. Returns the bound address so ":0" callers can discover the
// port.
func Start(addr string, tel obs.Telemetry) (string, error) {
	mux := tel.Mux()
	mux.Handle("/debug/", http.DefaultServeMux)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go func() {
		if err := http.Serve(ln, mux); err != nil {
			fmt.Fprintf(os.Stderr, "%s: debug server: %v\n", tel.Cmd, err)
		}
	}()
	return ln.Addr().String(), nil
}
