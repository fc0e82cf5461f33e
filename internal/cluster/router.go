package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"palirria/internal/obs"
	"palirria/internal/obs/stream"
)

// NodePicker is the routing policy the Router delegates to. The pick
// sub-package provides the production implementation (power-of-two
// choices over spare parallelism with circuit breakers and sticky keys);
// it lives below this interface so cluster need not import it.
type NodePicker interface {
	// PickSticky chooses a target, honouring a sticky key ("" disables
	// stickiness) and excluding already-failed node ids.
	PickSticky(key string, exclude ...string) (PeerStatus, error)
	// Report feeds the attempt's outcome back into breakers/stickiness.
	Report(id string, ok bool)
}

// RouterConfig wires a Router.
type RouterConfig struct {
	// Node is the router's own gossip member — the source of the
	// membership view shown at /cluster. Required.
	Node *Node
	// Picker chooses targets. Required.
	Picker NodePicker
	// Retries bounds how many *additional* nodes a failed submission is
	// tried against (default 2).
	Retries int
	// Backoff is the pause before each retry (default 10ms, doubling).
	Backoff time.Duration
	// Client performs the proxied submissions; defaults to a client with
	// a 60s timeout (jobs run synchronously on the serve node).
	Client *http.Client
	// Events, when set, publishes routed/failover events.
	Events *stream.Hub
	// Metrics, when set, registers routing counters.
	Metrics *obs.Registry
}

// Router proxies /submit to the node the picker chooses, with bounded
// retry-on-another-node failover. A retry is attempted only on transport
// errors and 5xx replies — a 429 (shedding) or 503 (draining) is a valid
// answer from a healthy node and is returned to the client as-is; the
// gossip shed flag already steers the next picks away.
type Router struct {
	cfg RouterConfig

	routed     atomic.Int64
	retried    atomic.Int64
	failedOver atomic.Int64
	failed     atomic.Int64
}

// NewRouter validates cfg and builds the router.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if cfg.Node == nil {
		return nil, fmt.Errorf("cluster: RouterConfig.Node required")
	}
	if cfg.Picker == nil {
		return nil, fmt.Errorf("cluster: RouterConfig.Picker required")
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	} else if cfg.Retries == 0 {
		cfg.Retries = 2
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 10 * time.Millisecond
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 60 * time.Second}
	}
	rt := &Router{cfg: cfg}
	if cfg.Metrics != nil {
		rt.registerMetrics(cfg.Metrics)
	}
	return rt, nil
}

// Handler mounts the router's HTTP surface: the /submit proxy, the
// /cluster membership view, /gossip (the router is a full gossip member),
// and /healthz.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/submit", rt.handleSubmit)
	mux.HandleFunc("/gossip", rt.cfg.Node.GossipHandler())
	mux.HandleFunc("/cluster", rt.cfg.Node.ClusterHandler())
	return mux
}

// stickyKey derives the submission's sticky key: an explicit ?sticky=K
// wins; otherwise batch submissions (count>1) stick by client address, so
// a DAG-free batch prefix from one producer lands on one node.
func stickyKey(r *http.Request) string {
	if k := r.URL.Query().Get("sticky"); k != "" {
		return k
	}
	if c, err := strconv.Atoi(r.URL.Query().Get("count")); err == nil && c > 1 {
		return "addr:" + r.RemoteAddr
	}
	return ""
}

// handleSubmit proxies one submission, failing over across nodes. The
// submission body is buffered (palirria-serve submissions are query-only,
// so this is tiny) to make the retries safe to replay; a body over
// maxWireBody is refused with 413 rather than forwarded cut short.
func (rt *Router) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxWireBody))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, fmt.Sprintf("body over %d bytes", maxWireBody), http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "bad body", http.StatusBadRequest)
		return
	}
	key := stickyKey(r)
	count := int64(1)
	if c, err := strconv.Atoi(r.URL.Query().Get("count")); err == nil && c > 1 {
		count = int64(c)
	}

	var tried []string
	var lastErr error
	backoff := rt.cfg.Backoff
	for attempt := 0; attempt <= rt.cfg.Retries; attempt++ {
		target, err := rt.cfg.Picker.PickSticky(key, tried...)
		if err != nil {
			lastErr = err
			break
		}
		if attempt > 0 {
			rt.retried.Add(1)
			select {
			case <-time.After(backoff):
			case <-r.Context().Done():
				http.Error(w, r.Context().Err().Error(), http.StatusRequestTimeout)
				return
			}
			backoff *= 2
		}
		status, hdr, respBody, err := rt.forward(r.Context(), &target, r.URL.RawQuery, body)
		if err != nil || status >= http.StatusInternalServerError {
			rt.cfg.Picker.Report(target.ID, false)
			tried = append(tried, target.ID)
			cause := "5xx"
			if err != nil {
				cause = err.Error()
				lastErr = err
			} else {
				lastErr = fmt.Errorf("node %s: status %d", target.ID, status)
			}
			rt.failedOver.Add(1)
			rt.publish(stream.Event{
				Kind: stream.KindFailover, Pool: rt.cfg.Node.ID(),
				Node: target.ID, Reason: cause, Arg: count,
			})
			continue
		}
		rt.cfg.Picker.Report(target.ID, true)
		rt.routed.Add(1)
		rt.publish(stream.Event{
			Kind: stream.KindRouted, Pool: rt.cfg.Node.ID(),
			Node: target.ID, Detail: key, Arg: count,
		})
		for k, vs := range hdr {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.Header().Set("X-Palirria-Node", target.ID)
		w.WriteHeader(status)
		w.Write(respBody) //nolint:errcheck // client went away
		return
	}
	rt.failed.Add(1)
	if lastErr == nil {
		lastErr = fmt.Errorf("no attempt made")
	}
	http.Error(w, fmt.Sprintf("cluster submit failed after %d node(s): %v",
		len(tried), lastErr), http.StatusBadGateway)
}

// forward performs one proxied submission against target, buffering the
// response so a failed attempt leaves nothing half-written to the client.
// A reply over maxWireBody is a failed attempt, like a transport error.
func (rt *Router) forward(ctx context.Context, target *PeerStatus, rawQuery string, body []byte) (int, http.Header, []byte, error) {
	url := target.Addr + "/submit"
	if rawQuery != "" {
		url += "?" + rawQuery
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, maxWireBody+1))
	if err != nil {
		return 0, nil, nil, err
	}
	if len(respBody) > maxWireBody {
		return 0, nil, nil, fmt.Errorf("reply over %d bytes", maxWireBody)
	}
	hdr := http.Header{}
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		hdr.Set("Content-Type", ct)
	}
	return resp.StatusCode, hdr, respBody, nil
}

func (rt *Router) publish(ev stream.Event) {
	if rt.cfg.Events != nil {
		rt.cfg.Events.Publish(ev)
	}
}

// Routed, Retried, FailedOver, and Failed expose the routing counters.
func (rt *Router) Routed() int64     { return rt.routed.Load() }
func (rt *Router) Retried() int64    { return rt.retried.Load() }
func (rt *Router) FailedOver() int64 { return rt.failedOver.Load() }
func (rt *Router) Failed() int64     { return rt.failed.Load() }

func (rt *Router) registerMetrics(reg *obs.Registry) {
	lbl := obs.Label{Key: "node", Value: rt.cfg.Node.ID()}
	reg.CounterFunc("palirria_router_routed_total", "Submissions routed to a node successfully.",
		func() float64 { return float64(rt.routed.Load()) }, lbl)
	reg.CounterFunc("palirria_router_retried_total", "Submission attempts that were retries on another node.",
		func() float64 { return float64(rt.retried.Load()) }, lbl)
	reg.CounterFunc("palirria_router_failover_total", "Attempts that failed and triggered failover.",
		func() float64 { return float64(rt.failedOver.Load()) }, lbl)
	reg.CounterFunc("palirria_router_failed_total", "Submissions that exhausted every node.",
		func() float64 { return float64(rt.failed.Load()) }, lbl)
}

// DecodeView parses a /cluster document (at most maxWireBody bytes of it) —
// shared by palirria-topo's -cluster mode and palirria-load's cluster
// watch table.
func DecodeView(r io.Reader) (View, error) {
	var v View
	err := json.NewDecoder(io.LimitReader(r, maxWireBody)).Decode(&v)
	return v, err
}
