package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"
)

// readiness is the process-wide readiness state reported by /healthz. S1's
// admission controller publishes "admitting" / "draining" /
// "budget-exhausted" through SetReadiness; a process that runs none keeps
// the static 200 "ok".
var readiness atomic.Pointer[readinessState]

type readinessState struct {
	state string
	ready bool
}

// SetReadiness publishes the admission readiness state: /healthz answers
// 200 with the state text when ready, 503 otherwise. Passing state == ""
// restores the default static 200 "ok" probe.
func SetReadiness(state string, ready bool) {
	if state == "" {
		readiness.Store(nil)
		return
	}
	readiness.Store(&readinessState{state: state, ready: ready})
}

// Readiness reports the currently published serve-mode state ("" and true
// when no S1 run is active and the probe is the static "ok").
func Readiness() (state string, ready bool) {
	if r := readiness.Load(); r != nil {
		return r.state, r.ready
	}
	return "", true
}

// NewAdminMux builds the admin HTTP mux for a registry:
//
//	/metrics       Prometheus text exposition of reg
//	/healthz       readiness probe: the admission state ("admitting" 200,
//	               "draining" / "budget-exhausted" 503) published via
//	               SetReadiness, else 200 "ok"
//	/debug/traces  JSON ring buffer of the last completed QueryTraces
//	/debug/pprof/  stdlib profiling handlers
//	/debug/vars    expvar JSON
//
// The handlers expose only aggregate quantities and runtime profiles —
// never plaintext votes, shares or key material.
func NewAdminMux(reg *Registry) *http.ServeMux {
	if reg == nil {
		reg = Default
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		state, ready := Readiness()
		if state == "" {
			state = "ok"
		}
		if !ready {
			w.WriteHeader(http.StatusServiceUnavailable)
		} else {
			w.WriteHeader(http.StatusOK)
		}
		fmt.Fprintln(w, state)
	})
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(struct { //nolint:errcheck // best-effort debug endpoint
			Total  uint64        `json:"total"`
			Traces []*QueryTrace `json:"traces"`
		}{DefaultTraces.Total(), DefaultTraces.Traces()})
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}

// AdminServer is a running admin endpoint.
type AdminServer struct {
	// Addr is the bound listen address (useful with ":0").
	Addr string

	srv *http.Server
	ln  net.Listener
}

// StartAdmin binds addr and serves the admin mux for reg in a background
// goroutine. Pass reg == nil for the Default registry.
func StartAdmin(addr string, reg *Registry) (*AdminServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: admin listen %s: %w", addr, err)
	}
	srv := &http.Server{
		Handler:           NewAdminMux(reg),
		ReadHeaderTimeout: 5 * time.Second,
	}
	a := &AdminServer{Addr: ln.Addr().String(), srv: srv, ln: ln}
	go srv.Serve(ln) //nolint:errcheck // Serve always returns on Close
	return a, nil
}

// Close shuts the admin endpoint down immediately.
func (a *AdminServer) Close() error {
	if a == nil || a.srv == nil {
		return nil
	}
	return a.srv.Close()
}
