package obs

import (
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"
)

// Server is a live observability endpoint: /metrics (Prometheus text
// format), /debug/vars (expvar), and /debug/pprof (CPU, heap, goroutine
// profiles). It is strictly opt-in — nothing listens unless Serve is
// called.
type Server struct {
	srv *http.Server
	lis net.Listener
}

// Serve starts the observability endpoint on addr (e.g. ":9090" or
// "127.0.0.1:0" for an ephemeral port) exposing reg. It returns once the
// listener is bound; serving continues in the background until Close.
func Serve(addr string, reg *Registry) (*Server, error) {
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		w.Write([]byte(`<html><body><h1>palirria observability</h1><ul>` +
			`<li><a href="/metrics">/metrics</a> (Prometheus)</li>` +
			`<li><a href="/debug/vars">/debug/vars</a> (expvar)</li>` +
			`<li><a href="/debug/pprof/">/debug/pprof/</a></li>` +
			`</ul></body></html>`))
	})

	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
		lis: lis,
	}
	go s.srv.Serve(lis) //nolint:errcheck // Serve returns ErrServerClosed on Close
	return s, nil
}

// Addr returns the bound listen address (resolves ":0" requests).
func (s *Server) Addr() string { return s.lis.Addr().String() }

// URL returns the server's base URL.
func (s *Server) URL() string {
	addr := s.Addr()
	if strings.HasPrefix(addr, "[::]:") {
		addr = "localhost:" + strings.TrimPrefix(addr, "[::]:")
	}
	return "http://" + addr
}

// Close shuts the endpoint down.
func (s *Server) Close() error { return s.srv.Close() }
