// Package pick is the client-side node selector for a Palirria cluster:
// given a membership view (from a gossiping cluster.Node or a scraped
// /cluster document), it steers each submission by power-of-two-choices
// over spare estimated parallelism — sample two healthy candidates, route
// to the one whose gossiped Allotment − Desire is larger, tie-broken by
// admission p99 and then queue depth. This is the paper's DVS victim
// ordering lifted to the node level: work goes where capacity already is.
//
// Around the raw choice the picker layers the production concerns:
//
//   - candidate filtering: dead peers and routers are never candidates;
//     shedding or suspect nodes and nodes with no positive spare are only
//     candidates when nothing better exists (graceful degradation instead
//     of a routing blackout);
//   - per-node circuit breakers: a node that keeps failing is taken out
//     of the candidate set for a cooldown, then probed half-open;
//   - sticky routing: a caller-provided key (e.g. a batch prefix) pins
//     consecutive picks to the same node while it stays healthy, so a
//     DAG-free batch keeps its locality without re-sampling per job.
package pick

import (
	"errors"
	"math/rand"
	"sync"
	"time"

	"palirria/internal/cluster"
)

// ErrNoCandidates reports an empty routable set: every serve node is
// dead, broken open, or unknown.
var ErrNoCandidates = errors.New("pick: no routable cluster node")

// Options tune the picker.
type Options struct {
	// BreakAfter consecutive failures open a node's breaker (default 3).
	BreakAfter int
	// BreakFor is the open-breaker cooldown before a half-open probe
	// (default 2s).
	BreakFor time.Duration
	// StickyFor bounds how long a sticky key pins its node without a
	// successful use (default 10s); Report drops older pins.
	StickyFor time.Duration
	// Rand seeds the two-choice sampling; defaults to a time-seeded
	// source. Tests inject a fixed seed.
	Rand *rand.Rand
	// Now is the clock (tests override it).
	Now func() time.Time
}

// Picker chooses submission targets from a live membership source.
type Picker struct {
	src func() []cluster.PeerStatus
	opt Options

	mu       sync.Mutex
	rng      *rand.Rand
	breakers map[string]*breaker
	sticky   map[string]*stickyEntry
}

type stickyEntry struct {
	id      string
	renewed time.Time
	// picked is set when the pin routes a submission and cleared when a
	// success on its node renews it: a success renews only the pins in use,
	// not every pin that ever named the node.
	picked bool
}

// New builds a picker over src, which returns the current candidate rows
// (typically cluster.Node.Serveable, or a /cluster scrape).
func New(src func() []cluster.PeerStatus, opt Options) *Picker {
	if opt.BreakAfter <= 0 {
		opt.BreakAfter = 3
	}
	if opt.BreakFor <= 0 {
		opt.BreakFor = 2 * time.Second
	}
	if opt.StickyFor <= 0 {
		opt.StickyFor = 10 * time.Second
	}
	if opt.Now == nil {
		opt.Now = time.Now
	}
	rng := opt.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	return &Picker{
		src:      src,
		opt:      opt,
		rng:      rng,
		breakers: map[string]*breaker{},
		sticky:   map[string]*stickyEntry{},
	}
}

// better ranks two candidates for one submission: more spare parallelism
// wins; equal spare falls through to lower admission p99, then shallower
// queue, then id (total order keeps the choice deterministic in tests).
func better(a, b *cluster.PeerStatus) bool {
	if a.Spare != b.Spare {
		return a.Spare > b.Spare
	}
	if a.AdmitP99 != b.AdmitP99 {
		return a.AdmitP99 < b.AdmitP99
	}
	if a.Queued != b.Queued {
		return a.Queued < b.Queued
	}
	return a.ID < b.ID
}

// Pick chooses a node, excluding the listed ids (a failed attempt's node
// on a retry). Candidate filtering runs in preference tiers: healthy
// nodes with spare capacity first, then healthy-but-saturated, then
// suspect/shedding stragglers — the next tier is consulted only when the
// better ones are empty, so a single spare node receives the whole skewed
// burst rather than a two-thirds p2c share of it.
func (p *Picker) Pick(exclude ...string) (cluster.PeerStatus, error) {
	ex := map[string]bool{}
	for _, id := range exclude {
		ex[id] = true
	}
	now := p.opt.Now()

	var spare, saturated, degraded []cluster.PeerStatus
	for _, c := range p.src() {
		if c.Role != cluster.RoleServe || c.State == cluster.StateDead || ex[c.ID] {
			continue
		}
		if !p.allowed(c.ID, now) {
			continue
		}
		// Older peers gossip the pre-clamp spare signal, which goes
		// negative for a quantum or two around a policy rebuild (desire
		// transiently exceeds the shrunk capacity). Headroom below zero is
		// meaningless for routing: normalize it so a rebuild-window node
		// ties with ordinary saturated peers — and loses to them only on
		// the real tie-breakers (admit p99, queue depth) — instead of
		// ranking strictly last in its tier.
		if c.Spare < 0 {
			c.Spare = 0
		}
		switch {
		case c.State == cluster.StateAlive && !c.Shed && c.Spare > 0:
			spare = append(spare, c)
		case c.State == cluster.StateAlive && !c.Shed:
			saturated = append(saturated, c)
		default:
			degraded = append(degraded, c)
		}
	}
	tier := spare
	if len(tier) == 0 {
		tier = saturated
	}
	if len(tier) == 0 {
		tier = degraded
	}
	switch len(tier) {
	case 0:
		return cluster.PeerStatus{}, ErrNoCandidates
	case 1:
		return tier[0], nil
	}
	// Power of two choices within the tier.
	p.mu.Lock()
	i := p.rng.Intn(len(tier))
	j := p.rng.Intn(len(tier) - 1)
	p.mu.Unlock()
	if j >= i {
		j++
	}
	if better(&tier[i], &tier[j]) {
		return tier[i], nil
	}
	return tier[j], nil
}

// PickSticky is Pick pinned by key: while the key's node remains a
// routable candidate (and the pin is younger than StickyFor), consecutive
// calls return it; otherwise a fresh Pick re-pins the key. A successful
// Report renews the pin.
func (p *Picker) PickSticky(key string, exclude ...string) (cluster.PeerStatus, error) {
	if key == "" {
		return p.Pick(exclude...)
	}
	now := p.opt.Now()
	p.mu.Lock()
	ent := p.sticky[key]
	live := ent != nil && !p.expired(ent, now)
	p.mu.Unlock()
	if live && !contains(exclude, ent.id) {
		if c, ok := p.candidate(ent.id, now); ok {
			p.mu.Lock()
			ent.picked = true
			p.mu.Unlock()
			return c, nil
		}
	}
	c, err := p.Pick(exclude...)
	if err != nil {
		return c, err
	}
	p.mu.Lock()
	p.sticky[key] = &stickyEntry{id: c.ID, renewed: now, picked: true}
	p.mu.Unlock()
	return c, nil
}

// expired reports whether ent's pin has gone unused for longer than
// StickyFor. The caller holds p.mu.
func (p *Picker) expired(ent *stickyEntry, now time.Time) bool {
	return now.Sub(ent.renewed) > p.opt.StickyFor
}

// candidate re-validates a pinned id against the live view: it must still
// be an alive, non-shedding serve node with a permitting breaker.
func (p *Picker) candidate(id string, now time.Time) (cluster.PeerStatus, bool) {
	for _, c := range p.src() {
		if c.ID != id {
			continue
		}
		if c.Role == cluster.RoleServe && c.State == cluster.StateAlive &&
			!c.Shed && p.allowed(id, now) {
			return c, true
		}
		break
	}
	return cluster.PeerStatus{}, false
}

// Report feeds an attempt's outcome back: success closes the node's
// breaker and renews the sticky pins that routed to it since their last
// renewal; failure counts toward opening it and drops the node's pins.
// Either way it drops every expired pin, so the sticky table holds only
// the keys in use within the last StickyFor.
func (p *Picker) Report(id string, ok bool) {
	now := p.opt.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	b := p.breakers[id]
	if b == nil {
		b = &breaker{}
		p.breakers[id] = b
	}
	if ok {
		b.succeed()
	} else {
		b.fail(p.opt.BreakAfter, p.opt.BreakFor, now)
	}
	for key, ent := range p.sticky {
		switch {
		case p.expired(ent, now) || (!ok && ent.id == id):
			delete(p.sticky, key)
		case ok && ent.id == id && ent.picked:
			ent.renewed, ent.picked = now, false
		}
	}
}

// allowed asks the node's breaker whether an attempt may go out now.
func (p *Picker) allowed(id string, now time.Time) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	b := p.breakers[id]
	if b == nil {
		return true
	}
	return b.allow(now)
}

// BreakerOpen reports whether id's breaker currently blocks attempts
// (diagnostic; half-open probes count as not blocked).
func (p *Picker) BreakerOpen(id string) bool {
	return !p.allowed(id, p.opt.Now())
}

func contains(ids []string, id string) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}
