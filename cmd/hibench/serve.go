package main

import (
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"runtime"

	"hiconc/internal/hirec"
	"hiconc/internal/histats"
)

// startHTTP serves the debug endpoints on addr for the lifetime of the
// process: /debug/pprof (with block and mutex profiling enabled so
// contention inside the protocols is visible), /debug/vars (expvar,
// including the live histats tree), a plain-text /metrics exposition and
// a /trace download of the live flight recording (Chrome trace JSON).
func startHTTP(addr string) error {
	// Sample blocking events (channel/cond waits) about once per
	// microsecond blocked, and one mutex contention event in a hundred —
	// cheap enough to leave on for the whole run.
	runtime.SetBlockProfileRate(1000)
	runtime.SetMutexProfileFraction(100)
	histats.PublishExpvar("histats")
	http.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		r := histats.Active()
		if r == nil {
			http.Error(w, "histats disabled (run with -watch, or an E24 enabled phase)", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = histats.WriteText(w, r.Snapshot())
	})
	http.HandleFunc("/trace", func(w http.ResponseWriter, req *http.Request) {
		r := histats.Recording()
		if r == nil {
			http.Error(w, "flight recorder disabled (run with -record)", http.StatusServiceUnavailable)
			return
		}
		// Snapshot is safe against live writers (unsealed slots are
		// skipped), so the trace can be pulled mid-run.
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="flight-trace.json"`)
		_ = hirec.WriteChromeTrace(w, r.Snapshot())
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("-http: %w", err)
	}
	fmt.Printf("serving /debug/pprof, /debug/vars, /metrics and /trace on http://%s\n", ln.Addr())
	go func() { _ = http.Serve(ln, nil) }()
	return nil
}
