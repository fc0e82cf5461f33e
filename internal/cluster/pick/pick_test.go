package pick

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"palirria/internal/cluster"
)

// fixedView returns a static membership source over rows.
func fixedView(rows []cluster.PeerStatus) func() []cluster.PeerStatus {
	return func() []cluster.PeerStatus { return rows }
}

func serveRow(id string, state string, spare int, shed bool) cluster.PeerStatus {
	return cluster.PeerStatus{
		Record: cluster.Record{ID: id, Addr: "http://" + id, Role: cluster.RoleServe, Spare: spare, Shed: shed},
		State:  state,
	}
}

// testPicker builds a picker with a fixed seed and a controllable clock.
func testPicker(rows []cluster.PeerStatus) (*Picker, *time.Time) {
	now := time.Unix(1700000000, 0)
	p := New(fixedView(rows), Options{
		Rand: rand.New(rand.NewSource(1)),
		Now:  func() time.Time { return now },
	})
	return p, &now
}

func TestPickPrefersSpareTier(t *testing.T) {
	// One node has spare parallelism, two are saturated: the spare node
	// must win every pick, not the ~1/3..2/3 share plain p2c would give.
	rows := []cluster.PeerStatus{
		serveRow("n1", cluster.StateAlive, 0, false),
		serveRow("n2", cluster.StateAlive, 5, false),
		serveRow("n3", cluster.StateAlive, 0, false),
	}
	p, _ := testPicker(rows)
	for i := 0; i < 50; i++ {
		c, err := p.Pick()
		if err != nil {
			t.Fatal(err)
		}
		if c.ID != "n2" {
			t.Fatalf("pick %d chose %s, want the only spare node n2", i, c.ID)
		}
	}
}

func TestPickTwoChoicesBySpare(t *testing.T) {
	// All three have spare; p2c must favour the node with the most. With
	// three candidates the best node wins whenever it is sampled: 2/3 of
	// picks in expectation, and never the worst-of-three unless sampled
	// against an equal.
	rows := []cluster.PeerStatus{
		serveRow("small", cluster.StateAlive, 1, false),
		serveRow("mid", cluster.StateAlive, 3, false),
		serveRow("big", cluster.StateAlive, 9, false),
	}
	p, _ := testPicker(rows)
	got := map[string]int{}
	const n = 3000
	for i := 0; i < n; i++ {
		c, err := p.Pick()
		if err != nil {
			t.Fatal(err)
		}
		got[c.ID]++
	}
	if got["big"] < n/2 {
		t.Fatalf("big node got %d/%d picks, want a p2c majority", got["big"], n)
	}
	if got["small"] > got["mid"] {
		t.Fatalf("worse node out-picked a better one: %v", got)
	}
}

func TestPickTiersDegradeGracefully(t *testing.T) {
	// No healthy spare node: fall to saturated, then to suspect/shedding,
	// and only error when everything is dead or excluded.
	rows := []cluster.PeerStatus{
		serveRow("dead", cluster.StateDead, 9, false),
		serveRow("suspect", cluster.StateSuspect, 9, false),
		serveRow("shed", cluster.StateAlive, 9, true),
		serveRow("full", cluster.StateAlive, 0, false),
	}
	p, _ := testPicker(rows)

	c, err := p.Pick()
	if err != nil || c.ID != "full" {
		t.Fatalf("pick = %v, %v; want the saturated-but-healthy node", c.ID, err)
	}
	c, err = p.Pick("full")
	if err != nil {
		t.Fatal(err)
	}
	if c.ID != "suspect" && c.ID != "shed" {
		t.Fatalf("degraded tier pick = %s", c.ID)
	}
	if _, err := p.Pick("full", "suspect", "shed"); err != ErrNoCandidates {
		t.Fatalf("exhausted pick err = %v, want ErrNoCandidates", err)
	}
}

// TestPickToleratesNegativeSpare drives a rebuild-window snapshot through
// the tiers: older peers gossip the pre-clamp spare signal, which dips
// negative for a quantum or two while the estimator re-learns a shrunk
// mesh. The picker must treat it as zero headroom — an ordinary saturated
// peer — not rank it strictly below every real saturated node, and never
// prefer it over a node with actual spare capacity.
func TestPickToleratesNegativeSpare(t *testing.T) {
	rebuilding := serveRow("rebuilding", cluster.StateAlive, -3, false)
	rebuilding.Record.Queued = 1

	// Against a saturated peer with a deeper queue, the normalized node
	// must win on the tie-breaker: both sit at spare 0, so queue depth
	// decides. Pre-clamp ordering would rank -3 below 0 unconditionally.
	slow := serveRow("slow", cluster.StateAlive, 0, false)
	slow.Record.Queued = 50
	p, _ := testPicker([]cluster.PeerStatus{rebuilding, slow})
	for i := 0; i < 30; i++ {
		c, err := p.Pick()
		if err != nil {
			t.Fatal(err)
		}
		if c.ID != "rebuilding" {
			t.Fatalf("pick %d chose %s; the rebuild-window node must tie at spare 0 and win on queue depth", i, c.ID)
		}
		if c.Spare != 0 {
			t.Fatalf("candidate carries pre-clamp spare %d, want normalized 0", c.Spare)
		}
	}

	// A node with real headroom still owns the spare tier outright.
	p, _ = testPicker([]cluster.PeerStatus{rebuilding, serveRow("roomy", cluster.StateAlive, 2, false)})
	for i := 0; i < 30; i++ {
		c, err := p.Pick()
		if err != nil {
			t.Fatal(err)
		}
		if c.ID != "roomy" {
			t.Fatalf("pick %d chose %s over the only node with spare capacity", i, c.ID)
		}
	}

	// Alone, the rebuild-window node is still routable (saturated tier,
	// not degraded): negative spare must not read as unhealthy.
	p, _ = testPicker([]cluster.PeerStatus{rebuilding, serveRow("shedding", cluster.StateAlive, 9, true)})
	c, err := p.Pick()
	if err != nil || c.ID != "rebuilding" {
		t.Fatalf("pick = %v, %v; want the rebuild-window node ahead of the degraded tier", c.ID, err)
	}
}

func TestPickNeverRoutesToRouter(t *testing.T) {
	rows := []cluster.PeerStatus{
		{Record: cluster.Record{ID: "rt", Role: cluster.RoleRouter, Spare: 99}, State: cluster.StateAlive},
		serveRow("n1", cluster.StateAlive, 1, false),
	}
	p, _ := testPicker(rows)
	for i := 0; i < 20; i++ {
		c, err := p.Pick()
		if err != nil {
			t.Fatal(err)
		}
		if c.ID == "rt" {
			t.Fatal("picked the router itself")
		}
	}
}

func TestBreakerOpensAndProbes(t *testing.T) {
	rows := []cluster.PeerStatus{
		serveRow("bad", cluster.StateAlive, 9, false),
		serveRow("ok", cluster.StateAlive, 1, false),
	}
	p, now := testPicker(rows)

	// Three consecutive failures open bad's breaker; picks then avoid it
	// even though it advertises the most spare parallelism.
	for i := 0; i < 3; i++ {
		p.Report("bad", false)
	}
	if !p.BreakerOpen("bad") {
		t.Fatal("breaker still closed after BreakAfter failures")
	}
	for i := 0; i < 20; i++ {
		c, err := p.Pick()
		if err != nil {
			t.Fatal(err)
		}
		if c.ID == "bad" {
			t.Fatal("picked a node with an open breaker")
		}
	}

	// After the cooldown one half-open probe goes through; a failed probe
	// re-opens immediately (no three-strikes for a probing node).
	*now = now.Add(3 * time.Second)
	if p.BreakerOpen("bad") {
		t.Fatal("breaker did not half-open after cooldown")
	}
	p.Report("bad", false)
	if !p.BreakerOpen("bad") {
		t.Fatal("failed probe did not re-open the breaker")
	}

	// A successful probe closes it fully.
	*now = now.Add(3 * time.Second)
	p.Report("bad", true)
	if p.BreakerOpen("bad") {
		t.Fatal("successful probe left the breaker open")
	}
}

func TestStickyPinsAndUnpinsOnFailure(t *testing.T) {
	rows := []cluster.PeerStatus{
		serveRow("n1", cluster.StateAlive, 4, false),
		serveRow("n2", cluster.StateAlive, 4, false),
		serveRow("n3", cluster.StateAlive, 4, false),
	}
	p, now := testPicker(rows)

	first, err := p.PickSticky("batch-7")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		c, err := p.PickSticky("batch-7")
		if err != nil {
			t.Fatal(err)
		}
		if c.ID != first.ID {
			t.Fatalf("sticky pick moved from %s to %s", first.ID, c.ID)
		}
		p.Report(c.ID, true)
	}

	// A failure on the pinned node drops the pin; the next sticky pick
	// lands elsewhere (the failed node is excluded by the retry loop).
	p.Report(first.ID, false)
	c, err := p.PickSticky("batch-7", first.ID)
	if err != nil {
		t.Fatal(err)
	}
	if c.ID == first.ID {
		t.Fatal("sticky key still pinned to the failed node")
	}

	// Pins expire after StickyFor without a successful renewal.
	second := c.ID
	*now = now.Add(11 * time.Second)
	if _, err := p.PickSticky("batch-7"); err != nil {
		t.Fatal(err)
	}
	_ = second // expiry path exercised; landing node is p2c-random
}

func TestStickyFollowsHealth(t *testing.T) {
	// The pinned node turning unhealthy (shedding) forces a re-pin even
	// within the sticky window.
	rows := []cluster.PeerStatus{
		serveRow("n1", cluster.StateAlive, 4, false),
		serveRow("n2", cluster.StateAlive, 4, false),
	}
	p, _ := testPicker(rows)
	first, err := p.PickSticky("k")
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		if rows[i].ID == first.ID {
			rows[i].Shed = true
		}
	}
	c, err := p.PickSticky("k")
	if err != nil {
		t.Fatal(err)
	}
	if c.ID == first.ID {
		t.Fatal("sticky pick kept a node that began shedding")
	}
}

// TestStickyTableDropsExpiredPins: distinct sticky keys (every ?sticky=K,
// every batch client address) must not pile up for the router's lifetime.
// After 10 000 keys spread over five StickyFor windows only the last
// window's pins remain, and a live pin still sticks.
func TestStickyTableDropsExpiredPins(t *testing.T) {
	rows := []cluster.PeerStatus{
		serveRow("n1", cluster.StateAlive, 4, false),
		serveRow("n2", cluster.StateAlive, 4, false),
		serveRow("n3", cluster.StateAlive, 4, false),
	}
	p, now := testPicker(rows)
	const keys = 10_000
	step := 5 * p.opt.StickyFor / keys
	var last cluster.PeerStatus
	for i := 0; i < keys; i++ {
		*now = now.Add(step)
		c, err := p.PickSticky(fmt.Sprintf("k%d", i))
		if err != nil {
			t.Fatal(err)
		}
		p.Report(c.ID, true)
		last = c
	}
	window := int(p.opt.StickyFor/step) + 1
	if n := len(p.sticky); n > window {
		t.Fatalf("sticky table holds %d pins, want at most the last window's %d", n, window)
	}
	if _, ok := p.sticky["k0"]; ok {
		t.Fatal("the first key's pin outlived five StickyFor windows")
	}
	for i := 0; i < 20; i++ {
		c, err := p.PickSticky(fmt.Sprintf("k%d", keys-1))
		if err != nil {
			t.Fatal(err)
		}
		if c.ID != last.ID {
			t.Fatalf("live pin moved from %s to %s", last.ID, c.ID)
		}
	}
}
