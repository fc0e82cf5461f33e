package serve

import (
	"testing"

	"palirria/internal/xrand"
)

// TestShedLadderTable replays TestPoolShedLadderEscalation's quantum
// sequence — and TestPoolShedLatch's hold/release tail — on the bare
// value: no pool, no runtime, no clock.
func TestShedLadderTable(t *testing.T) {
	const capacity, queueCap = 2, 2
	l := shedLadder{shedQuanta: 2, queueCap: queueCap}
	steps := []struct {
		name               string
		filtered, resident int
		wantLevel          int32
		wantPinnedAfter    int
	}{
		{name: "pinned once", filtered: capacity, resident: queueCap, wantLevel: 0, wantPinnedAfter: 1},
		{name: "arms low", filtered: capacity, resident: queueCap, wantLevel: 1, wantPinnedAfter: 2},
		{name: "holds between rungs", filtered: capacity, resident: queueCap, wantLevel: 1, wantPinnedAfter: 3},
		{name: "escalates to normal", filtered: capacity, resident: queueCap, wantLevel: 2, wantPinnedAfter: 4},
		{name: "holds", filtered: capacity + 1, resident: queueCap, wantLevel: 2, wantPinnedAfter: 5},
		{name: "escalates to high", filtered: capacity, resident: queueCap, wantLevel: 3, wantPinnedAfter: 6},
		{name: "clamps at NumClasses", filtered: capacity, resident: queueCap, wantLevel: 3, wantPinnedAfter: 7},
		{name: "clamps at NumClasses again", filtered: capacity, resident: queueCap, wantLevel: 3, wantPinnedAfter: 8},
		{name: "partial drain holds the latch", filtered: capacity, resident: 1, wantLevel: 3, wantPinnedAfter: 9},
		{name: "desire drop resets", filtered: capacity - 1, resident: queueCap, wantLevel: 0, wantPinnedAfter: 0},
		{name: "re-pins from zero", filtered: capacity, resident: queueCap, wantLevel: 0, wantPinnedAfter: 1},
		{name: "re-arms", filtered: capacity, resident: queueCap, wantLevel: 1, wantPinnedAfter: 2},
		{name: "empty pool resets while pinned", filtered: capacity, resident: 0, wantLevel: 0, wantPinnedAfter: 0},
		{name: "unsaturated queue never arms", filtered: capacity, resident: 1, wantLevel: 0, wantPinnedAfter: 1},
		{name: "unsaturated queue never arms (2)", filtered: capacity, resident: 1, wantLevel: 0, wantPinnedAfter: 2},
		{name: "unsaturated queue never arms (3)", filtered: capacity, resident: 1, wantLevel: 0, wantPinnedAfter: 3},
		{name: "arms at the accumulated rung once saturated", filtered: capacity, resident: queueCap, wantLevel: 2, wantPinnedAfter: 4},
	}
	for i, s := range steps {
		if got := l.step(s.filtered, capacity, s.resident); got != s.wantLevel || l.level != got {
			t.Fatalf("step %d (%s): level = %d (field %d), want %d", i, s.name, got, l.level, s.wantLevel)
		}
		if l.pinned != s.wantPinnedAfter {
			t.Fatalf("step %d (%s): pinned = %d, want %d", i, s.name, l.pinned, s.wantPinnedAfter)
		}
	}
}

// TestShedLadderProperties drives 10^4 seeded random quantum sequences
// through the bare ladder and checks the ratchet's contract at every step.
func TestShedLadderProperties(t *testing.T) {
	rng := xrand.NewXoshiro256(0x9a11221a)
	for seq := 0; seq < 10_000; seq++ {
		capacity := 1 + rng.Intn(8)
		l := shedLadder{shedQuanta: 1 + rng.Intn(4), queueCap: 1 + rng.Intn(6)}
		// Bias each sequence toward pinned or calm, saturated or drained,
		// so both long overload runs and both reset paths are common.
		pinBias, fullBias := rng.Intn(5), rng.Intn(5)
		for q := 0; q < 64; q++ {
			filtered := rng.Intn(capacity)
			if rng.Intn(4) < pinBias {
				filtered = capacity + rng.Intn(3)
			}
			resident := rng.Intn(l.queueCap + 1)
			if rng.Intn(4) < fullBias {
				resident = l.queueCap
			}
			prev, prevPinned := l.level, l.pinned
			got := l.step(filtered, capacity, resident)

			if got != l.level || got < 0 || got > int32(NumClasses) {
				t.Fatalf("seq %d q %d: level %d (field %d) outside [0, NumClasses]", seq, q, got, l.level)
			}
			switch {
			case filtered < capacity:
				if got != 0 || l.pinned != 0 {
					t.Fatalf("seq %d q %d: desire below capacity left level %d pinned %d", seq, q, got, l.pinned)
				}
			case resident > 0:
				if got < prev {
					t.Fatalf("seq %d q %d: level fell %d -> %d while pinned with %d resident", seq, q, prev, got, resident)
				}
				if l.pinned != prevPinned+1 {
					t.Fatalf("seq %d q %d: pinned %d -> %d, want +1", seq, q, prevPinned, l.pinned)
				}
			case prev > 0:
				if got != 0 || l.pinned != 0 {
					t.Fatalf("seq %d q %d: shedding pool drained empty but kept level %d pinned %d", seq, q, got, l.pinned)
				}
			}
			if got > prev && (resident < l.queueCap || l.pinned < l.shedQuanta) {
				t.Fatalf("seq %d q %d: armed %d -> %d with resident %d/%d, pinned %d/%d",
					seq, q, prev, got, resident, l.queueCap, l.pinned, l.shedQuanta)
			}
			if got > prev && got != min(int32(l.pinned/l.shedQuanta), int32(NumClasses)) {
				t.Fatalf("seq %d q %d: armed to %d with pinned %d, shedQuanta %d", seq, q, got, l.pinned, l.shedQuanta)
			}
		}
	}
}
