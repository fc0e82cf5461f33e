// Package cluster is the multi-node layer over the serving stack: each
// palirria-serve process runs a gossip Node that periodically exchanges a
// compact signed state record — identity, Palirria desire and allotment,
// queue depth, admission p99, shed state — with a few random peers over a
// simple HTTP/JSON anti-entropy protocol. The merged membership table is
// the cluster-wide load signal: a Router (or any client using the pick
// sub-package) steers submissions toward the node advertising the most
// spare estimated parallelism, which is the paper's DVS victim ordering
// lifted from workers to nodes.
//
// Failure detection is heartbeat-based suspicion: a peer whose record
// stops advancing is marked suspect after SuspectAfter and dead after
// DeadAfter; both transitions (and recoveries) publish lifecycle events
// on the node's stream hub, so `palirria-load -watch` and the /events SSE
// endpoint render membership changes live.
package cluster

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// Roles a cluster member can advertise. Routers gossip like any other
// member (so their view converges and their failure is visible) but are
// never picked as submission targets.
const (
	RoleServe  = "serve"
	RoleRouter = "router"
)

// Record is one node's compact gossip state: identity, freshness, and the
// load signal routing steers on. Records are exchanged as JSON and, when
// the cluster has a shared secret, carry an HMAC-SHA256 signature over the
// canonical payload — a node cannot be impersonated (or its load signal
// forged) by anything not holding the secret.
type Record struct {
	// ID names the node; by convention its advertised address.
	ID string `json:"id"`
	// Addr is the node's advertised base URL (scheme://host:port) —
	// where /submit, /gossip, and /cluster live.
	Addr string `json:"addr"`
	// Role is RoleServe or RoleRouter.
	Role string `json:"role"`
	// Epoch distinguishes process incarnations: a restarted node starts a
	// higher epoch, so its fresh heartbeat sequence still supersedes the
	// old incarnation's records. (Epoch, Heartbeat) orders records.
	Epoch int64 `json:"epoch"`
	// Heartbeat is the per-epoch sequence number, bumped every gossip
	// round; a record only supersedes a stored one when newer.
	Heartbeat uint64 `json:"heartbeat"`

	// The load signal, sampled from serve.Pool.Stats (summed across a
	// node's pools). Desire is the filtered Palirria desire, Allotment the
	// granted workers, Spare the grantable headroom (mesh capacity minus
	// desire — see serve.Stats.Spare for why capacity, not the granted
	// allotment, is the A term of the A−D signal).
	Desire    int `json:"desire"`
	Allotment int `json:"allotment"`
	Spare     int `json:"spare"`
	// Queued is admitted-but-unfinished depth; QueueCap its bound.
	Queued   int64 `json:"queued"`
	QueueCap int   `json:"queue_cap"`
	// Shed reports an armed overload latch; shedding nodes are routed to
	// only when every alternative is shedding too.
	Shed bool `json:"shed"`
	// AdmitP99 is the submit-to-start p99 in seconds (obs.Histogram
	// quantile), the routing tie-breaker after spare parallelism.
	AdmitP99 float64 `json:"admit_p99_seconds"`

	// UnixNS is the sender's wall clock when the record was built; purely
	// diagnostic (suspicion uses receiver-local arrival times).
	UnixNS int64 `json:"unix_ns"`
	// Sig is the hex HMAC-SHA256 of the canonical payload under the
	// cluster secret; empty when the cluster runs unsigned.
	Sig string `json:"sig,omitempty"`
}

// payload is the canonical byte string the signature covers: every field
// that affects membership or routing, in fixed order. JSON is not used so
// field ordering and encoding quirks cannot unsign a valid record.
func (r *Record) payload() []byte {
	return []byte(fmt.Sprintf("%s|%s|%s|%d|%d|%d|%d|%d|%d|%d|%t|%.9f|%d",
		r.ID, r.Addr, r.Role, r.Epoch, r.Heartbeat,
		r.Desire, r.Allotment, r.Spare, r.Queued, r.QueueCap,
		r.Shed, r.AdmitP99, r.UnixNS))
}

// Sign stamps the record's signature under secret. An empty secret leaves
// the record unsigned.
func (r *Record) Sign(secret string) {
	if secret == "" {
		r.Sig = ""
		return
	}
	mac := hmac.New(sha256.New, []byte(secret))
	mac.Write(r.payload())
	r.Sig = hex.EncodeToString(mac.Sum(nil))
}

// Verify checks the record's signature under secret. With an empty secret
// every record verifies (the cluster runs unsigned); with one set, an
// unsigned or tampered record fails.
func (r *Record) Verify(secret string) bool {
	if secret == "" {
		return true
	}
	mac := hmac.New(sha256.New, []byte(secret))
	mac.Write(r.payload())
	want := hex.EncodeToString(mac.Sum(nil))
	return hmac.Equal([]byte(want), []byte(r.Sig))
}

// Newer reports whether r supersedes old, ordering by (Epoch, Heartbeat).
func (r *Record) Newer(old *Record) bool {
	if r.Epoch != old.Epoch {
		return r.Epoch > old.Epoch
	}
	return r.Heartbeat > old.Heartbeat
}
