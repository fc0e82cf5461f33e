package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"palirria/internal/obs"
	"palirria/internal/obs/stream"
)

// Peer states of the suspicion state machine. A peer is alive while its
// record keeps advancing, suspect once it has been silent for
// SuspectAfter, dead after DeadAfter, and reaped (forgotten) after
// 4×DeadAfter. A newer record at any pre-reap stage revives it to alive.
const (
	StateAlive   = "alive"
	StateSuspect = "suspect"
	StateDead    = "dead"
)

// Config describes one gossip member.
type Config struct {
	// ID names the node; defaults to Addr. Must be unique in the cluster.
	ID string
	// Addr is the advertised base URL other members reach this node at
	// (scheme://host:port). Required.
	Addr string
	// Role is RoleServe (default) or RoleRouter. Routers gossip like any
	// member but are never submission targets.
	Role string
	// Secret, when non-empty, HMAC-signs every outgoing record and rejects
	// unsigned or tampered incoming ones. All members must agree on it.
	Secret string
	// Snapshot fills the load half of the node's record (desire,
	// allotment, spare, queue depth, shed, admit p99); identity and
	// freshness are stamped by the node. Nil advertises an idle record
	// (routers have no pool to sample).
	Snapshot func() Record
	// Join lists seed base URLs contacted on the first round.
	Join []string
	// Interval is the gossip period (default 500ms).
	Interval time.Duration
	// SuspectAfter and DeadAfter tune the failure detector: a peer whose
	// record has not advanced for SuspectAfter is suspected, for DeadAfter
	// confirmed dead. Defaults: 4×Interval and 10×Interval.
	SuspectAfter time.Duration
	DeadAfter    time.Duration
	// Fanout is how many peers each round exchanges state with (default 2).
	Fanout int
	// Events, when set, publishes peer-up/peer-suspect/peer-dead
	// transitions (Pool carries the node id, Node the peer id).
	Events *stream.Hub
	// Metrics, when set, registers membership gauges and per-peer
	// desire/allotment/suspicion series.
	Metrics *obs.Registry
	// Client is the HTTP client for gossip exchanges; defaults to one with
	// a timeout of Interval (an exchange slower than a round is useless).
	Client *http.Client
	// Rand seeds peer selection; defaults to a time-seeded source. Tests
	// inject a fixed seed for determinism.
	Rand *rand.Rand
}

// peerEntry is one membership-table row.
type peerEntry struct {
	rec         Record
	state       string
	lastAdvance time.Time // receiver-local time the record last advanced
}

// PeerStatus is one row of the exported cluster view.
type PeerStatus struct {
	Record
	// State is alive, suspect, or dead.
	State string `json:"state"`
	// SilentMS is how long ago (receiver-local) the record last advanced.
	SilentMS int64 `json:"silent_ms"`
	// Self marks the reporting node's own row.
	Self bool `json:"self,omitempty"`
}

// View is the /cluster status document: the node's own record plus its
// full membership table (self included), sorted by id.
type View struct {
	Self    Record       `json:"self"`
	Peers   []PeerStatus `json:"peers"`
	Rounds  int64        `json:"rounds"`
	BadSigs int64        `json:"bad_sigs,omitempty"`
}

// maxWireBody bounds every body this package reads off a socket: gossip
// posts and replies, /cluster documents, routed submit bodies. A full
// record set for a few hundred peers is tens of kilobytes.
const maxWireBody = 1 << 20

// gossipMsg is the anti-entropy exchange body: the sender's full record
// set. The receiver merges it and replies with its own.
type gossipMsg struct {
	From  string   `json:"from"`
	Peers []Record `json:"peers"`
}

// Node is one gossip member: it owns the membership table, runs the
// periodic exchange loop, and serves the /gossip and /cluster endpoints.
type Node struct {
	cfg   Config
	epoch int64
	hb    atomic.Uint64

	mu    sync.Mutex
	peers map[string]*peerEntry
	reged map[string]bool // per-peer metric series already registered

	rounds   atomic.Int64
	badSigs  atomic.Int64
	exchFail atomic.Int64

	client *http.Client
	rng    *rand.Rand
	rngMu  sync.Mutex

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	stopped   chan struct{}
}

// NewNode validates cfg and builds the member (Start launches the loop).
func NewNode(cfg Config) (*Node, error) {
	if cfg.Addr == "" {
		return nil, errors.New("cluster: Config.Addr required")
	}
	if cfg.ID == "" {
		cfg.ID = cfg.Addr
	}
	if cfg.Role == "" {
		cfg.Role = RoleServe
	}
	if cfg.Role != RoleServe && cfg.Role != RoleRouter {
		return nil, fmt.Errorf("cluster: unknown role %q", cfg.Role)
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 500 * time.Millisecond
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = 4 * cfg.Interval
	}
	if cfg.DeadAfter <= cfg.SuspectAfter {
		cfg.DeadAfter = 10 * cfg.Interval
		if cfg.DeadAfter <= cfg.SuspectAfter {
			cfg.DeadAfter = 2 * cfg.SuspectAfter
		}
	}
	if cfg.Fanout <= 0 {
		cfg.Fanout = 2
	}
	n := &Node{
		cfg:     cfg,
		epoch:   time.Now().UnixNano(),
		peers:   map[string]*peerEntry{},
		reged:   map[string]bool{},
		client:  cfg.Client,
		rng:     cfg.Rand,
		stop:    make(chan struct{}),
		stopped: make(chan struct{}),
	}
	if n.client == nil {
		n.client = &http.Client{Timeout: cfg.Interval}
	}
	if n.rng == nil {
		n.rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	if cfg.Metrics != nil {
		n.registerMetrics(cfg.Metrics)
	}
	return n, nil
}

// ID returns the node's identity.
func (n *Node) ID() string { return n.cfg.ID }

// self builds (and signs) the node's current record at the given
// heartbeat without bumping it.
func (n *Node) self(hb uint64) Record {
	var rec Record
	if n.cfg.Snapshot != nil {
		rec = n.cfg.Snapshot()
	}
	rec.ID = n.cfg.ID
	rec.Addr = n.cfg.Addr
	rec.Role = n.cfg.Role
	rec.Epoch = n.epoch
	rec.Heartbeat = hb
	rec.UnixNS = time.Now().UnixNano()
	rec.Sign(n.cfg.Secret)
	return rec
}

// Start launches the gossip loop: an immediate seed round against Join,
// then one exchange round per Interval. Idempotent.
func (n *Node) Start() {
	n.startOnce.Do(func() {
		go func() {
			defer close(n.stopped)
			n.round()
			t := time.NewTicker(n.cfg.Interval)
			defer t.Stop()
			for {
				select {
				case <-n.stop:
					return
				case <-t.C:
					n.round()
				}
			}
		}()
	})
}

// Stop halts the gossip loop and waits for it. Idempotent; the handlers
// stay functional (a stopped node still answers /gossip and /cluster, it
// just no longer initiates exchanges or advances its heartbeat). On a node
// that was never started it returns at once, and a later Start is a no-op.
func (n *Node) Stop() {
	n.startOnce.Do(func() { close(n.stopped) })
	n.stopOnce.Do(func() { close(n.stop) })
	<-n.stopped
}

// round is one gossip beat: advance the heartbeat, sweep the failure
// detector, and exchange full state with up to Fanout targets.
func (n *Node) round() {
	n.rounds.Add(1)
	hb := n.hb.Add(1)
	n.sweep()
	msg := gossipMsg{From: n.cfg.ID, Peers: n.snapshotRecords(hb)}
	for _, addr := range n.pickTargets() {
		n.exchange(addr, &msg)
	}
}

// snapshotRecords collects the node's own record plus every non-reaped
// peer record — the full anti-entropy payload.
func (n *Node) snapshotRecords(hb uint64) []Record {
	recs := []Record{n.self(hb)}
	n.mu.Lock()
	for _, p := range n.peers {
		recs = append(recs, p.rec)
	}
	n.mu.Unlock()
	return recs
}

// pickTargets chooses up to Fanout exchange targets: random non-dead
// peers, topped up with seed addresses while the membership table is
// still empty (or everyone known is dead).
func (n *Node) pickTargets() []string {
	n.mu.Lock()
	var candidates []string
	for _, p := range n.peers {
		if p.state != StateDead {
			candidates = append(candidates, p.rec.Addr)
		}
	}
	n.mu.Unlock()
	n.rngMu.Lock()
	n.rng.Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	n.rngMu.Unlock()
	if len(candidates) > n.cfg.Fanout {
		candidates = candidates[:n.cfg.Fanout]
	}
	if len(candidates) == 0 {
		for _, seed := range n.cfg.Join {
			if seed != "" && seed != n.cfg.Addr {
				candidates = append(candidates, seed)
			}
		}
	}
	return candidates
}

// exchange POSTs the node's state to one peer and merges the response.
// Failures only count — the suspicion sweep decides what they mean.
func (n *Node) exchange(addr string, msg *gossipMsg) {
	body, err := json.Marshal(msg)
	if err != nil {
		return
	}
	resp, err := n.client.Post(addr+"/gossip", "application/json", bytes.NewReader(body))
	if err != nil {
		n.exchFail.Add(1)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		n.exchFail.Add(1)
		return
	}
	var reply gossipMsg
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxWireBody)).Decode(&reply); err != nil {
		n.exchFail.Add(1)
		return
	}
	n.mergeAll(reply.Peers)
}

// mergeAll folds a batch of records into the membership table.
func (n *Node) mergeAll(recs []Record) {
	for i := range recs {
		n.merge(&recs[i])
	}
}

// merge applies one record: verify, drop self-records (the node is
// authoritative about itself), insert or supersede, and publish the
// peer-up transition for new or recovered peers.
func (n *Node) merge(rec *Record) {
	if rec.ID == n.cfg.ID {
		return
	}
	if !rec.Verify(n.cfg.Secret) {
		n.badSigs.Add(1)
		return
	}
	if rec.Role != RoleServe && rec.Role != RoleRouter {
		return
	}
	now := time.Now()
	n.mu.Lock()
	p, ok := n.peers[rec.ID]
	var event stream.Kind
	fire := false
	switch {
	case !ok:
		n.peers[rec.ID] = &peerEntry{rec: *rec, state: StateAlive, lastAdvance: now}
		n.registerPeerMetrics(rec.ID)
		event, fire = stream.KindPeerUp, true
	case rec.Newer(&p.rec):
		p.rec = *rec
		p.lastAdvance = now
		if p.state != StateAlive {
			p.state = StateAlive
			event, fire = stream.KindPeerUp, true
		}
	}
	n.mu.Unlock()
	if fire {
		n.publish(event, rec.ID, 0)
	}
}

// sweep advances the suspicion state machine on receiver-local silence
// and reaps peers dead for 4×DeadAfter.
func (n *Node) sweep() {
	now := time.Now()
	type transition struct {
		kind   stream.Kind
		id     string
		silent time.Duration
	}
	var fires []transition
	n.mu.Lock()
	for id, p := range n.peers {
		silent := now.Sub(p.lastAdvance)
		switch {
		case silent > 4*n.cfg.DeadAfter:
			delete(n.peers, id)
		case p.state != StateDead && silent > n.cfg.DeadAfter:
			p.state = StateDead
			fires = append(fires, transition{stream.KindPeerDead, id, silent})
		case p.state == StateAlive && silent > n.cfg.SuspectAfter:
			p.state = StateSuspect
			fires = append(fires, transition{stream.KindPeerSuspect, id, silent})
		}
	}
	n.mu.Unlock()
	for _, f := range fires {
		n.publish(f.kind, f.id, int64(f.silent))
	}
}

func (n *Node) publish(kind stream.Kind, peer string, silentNS int64) {
	if n.cfg.Events == nil {
		return
	}
	n.cfg.Events.Publish(stream.Event{
		Kind: kind, Pool: n.cfg.ID, Node: peer, Arg: silentNS,
	})
}

// View samples the membership table, with the node's own (live-sampled)
// record first in a stable id-sorted order.
func (n *Node) View() View {
	self := n.self(n.hb.Load())
	v := View{
		Self:    self,
		Rounds:  n.rounds.Load(),
		BadSigs: n.badSigs.Load(),
	}
	now := time.Now()
	n.mu.Lock()
	v.Peers = make([]PeerStatus, 0, len(n.peers)+1)
	v.Peers = append(v.Peers, PeerStatus{Record: self, State: StateAlive, Self: true})
	for _, p := range n.peers {
		v.Peers = append(v.Peers, PeerStatus{
			Record:   p.rec,
			State:    p.state,
			SilentMS: now.Sub(p.lastAdvance).Milliseconds(),
		})
	}
	n.mu.Unlock()
	sort.Slice(v.Peers, func(i, j int) bool { return v.Peers[i].ID < v.Peers[j].ID })
	return v
}

// Serveable returns the routing candidate set: every serve-role member
// (self included when the node serves) that is not confirmed dead.
// Suspects stay in — a suspicion may be a lost heartbeat, and the
// picker's breakers handle a truly dark node — but the picker ranks them
// behind alive peers.
func (n *Node) Serveable() []PeerStatus {
	var out []PeerStatus
	for _, p := range n.View().Peers {
		if p.Role == RoleServe && p.State != StateDead {
			out = append(out, p)
		}
	}
	return out
}

// PeerState reports the current suspicion state of a peer id ("" when
// unknown).
func (n *Node) PeerState(id string) string {
	n.mu.Lock()
	defer n.mu.Unlock()
	if p, ok := n.peers[id]; ok {
		return p.state
	}
	return ""
}

// GossipHandler answers the anti-entropy POST: merge the sender's records,
// reply with the full local set. This is the whole wire protocol.
func (n *Node) GossipHandler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		// The whole body must be one JSON document: Unmarshal, unlike a
		// streaming Decode, refuses trailing bytes after the first value.
		var msg gossipMsg
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxWireBody))
		if err == nil {
			err = json.Unmarshal(body, &msg)
		}
		if err != nil {
			http.Error(w, "bad gossip body", http.StatusBadRequest)
			return
		}
		n.mergeAll(msg.Peers)
		reply := gossipMsg{From: n.cfg.ID, Peers: n.snapshotRecords(n.hb.Load())}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(reply) //nolint:errcheck // peer went away
	}
}

// ClusterHandler serves the membership view as JSON — the /cluster status
// endpoint every node (and the router) exposes.
func (n *Node) ClusterHandler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(n.View()) //nolint:errcheck // peer went away
	}
}

// registerMetrics exposes the node's aggregate membership counters.
func (n *Node) registerMetrics(reg *obs.Registry) {
	lbl := obs.Label{Key: "node", Value: n.cfg.ID}
	reg.CounterFunc("palirria_cluster_rounds_total", "Gossip rounds initiated.",
		func() float64 { return float64(n.rounds.Load()) }, lbl)
	reg.CounterFunc("palirria_cluster_exchange_failures_total", "Gossip exchanges that failed.",
		func() float64 { return float64(n.exchFail.Load()) }, lbl)
	reg.CounterFunc("palirria_cluster_bad_signatures_total", "Gossip records rejected for a bad signature.",
		func() float64 { return float64(n.badSigs.Load()) }, lbl)
	for _, st := range []string{StateAlive, StateSuspect, StateDead} {
		st := st
		reg.GaugeFunc("palirria_cluster_members", "Known peers by suspicion state.",
			func() float64 {
				n.mu.Lock()
				defer n.mu.Unlock()
				c := 0
				for _, p := range n.peers {
					if p.state == st {
						c++
					}
				}
				return float64(c)
			}, lbl, obs.Label{Key: "state", Value: st})
	}
}

// registerPeerMetrics adds the per-peer gauge series the first time a peer
// is seen. Called with n.mu held. The registry is append-only, so a
// reaped peer's series simply reads zero/dead thereafter.
func (n *Node) registerPeerMetrics(id string) {
	if n.cfg.Metrics == nil || n.reged[id] {
		return
	}
	n.reged[id] = true
	reg := n.cfg.Metrics
	lbls := []obs.Label{{Key: "node", Value: n.cfg.ID}, {Key: "peer", Value: id}}
	read := func(f func(*peerEntry) float64) func() float64 {
		return func() float64 {
			n.mu.Lock()
			defer n.mu.Unlock()
			if p, ok := n.peers[id]; ok {
				return f(p)
			}
			return 0
		}
	}
	reg.GaugeFunc("palirria_cluster_peer_desire", "Peer's last gossiped filtered desire.",
		read(func(p *peerEntry) float64 { return float64(p.rec.Desire) }), lbls...)
	reg.GaugeFunc("palirria_cluster_peer_allotment", "Peer's last gossiped allotment.",
		read(func(p *peerEntry) float64 { return float64(p.rec.Allotment) }), lbls...)
	reg.GaugeFunc("palirria_cluster_peer_spare", "Peer's last gossiped spare parallelism.",
		read(func(p *peerEntry) float64 { return float64(p.rec.Spare) }), lbls...)
	reg.GaugeFunc("palirria_cluster_peer_suspicion", "Peer suspicion state: 0 alive, 1 suspect, 2 dead.",
		read(func(p *peerEntry) float64 {
			switch p.state {
			case StateSuspect:
				return 1
			case StateDead:
				return 2
			}
			return 0
		}), lbls...)
}
