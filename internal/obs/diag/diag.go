// Package diag is the diagnostics listener the supervisor and worker
// daemons and the figures command share. It stands apart from package obs so that net/http/pprof,
// and the handlers it registers on http.DefaultServeMux when imported,
// reach only the programs that serve it.
package diag

import (
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"time"

	"redundancy/internal/obs"
)

// Serve sets up a daemon's diagnostics surface. With contention set
// it turns on the runtime's lock-contention samplers, so
// /debug/pprof/mutex and /debug/pprof/block return data: mutex contention
// sampled 1-in-5, block events recorded from 10µs up (both add
// steady-state bookkeeping cost, so they are off by default). With addr
// set it serves reg at http://addr/metrics, and the net/http/pprof
// endpoints under /debug/pprof/, and returns the bound address (addr may
// use port 0); with addr empty it serves nothing and returns "". The
// profiling surface rides the metrics listener on purpose: it is on only
// when the operator opted into a diagnostics port, never on the
// worker-facing protocol address.
func Serve(addr string, reg *obs.Registry, contention bool) (string, error) {
	if contention {
		runtime.SetMutexProfileFraction(5)
		runtime.SetBlockProfileRate(int(10 * time.Microsecond / time.Nanosecond))
	}
	if addr == "" {
		return "", nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go func() { _ = http.Serve(ln, mux) }()
	return ln.Addr().String(), nil
}
