package sim

import (
	"testing"

	"palirria/internal/xrand"
)

// before is the queue's total order, written plainly: (at, seq).
func before(a, b slot) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// checkTree reports the first broken winner-tree invariant of q, or "":
// every leaf names its own id and every internal node names whichever of
// its children's winners has the earlier key.
func checkTree(q *slotQueue) string {
	leaves := len(q.tree) / 2
	if len(q.keys) != leaves {
		return "keys and leaves differ in number"
	}
	for id := 0; id < leaves; id++ {
		if q.tree[leaves+id] != int32(id) {
			return "a leaf does not name its own id"
		}
	}
	for i := leaves - 1; i > 0; i-- {
		l, r := q.tree[2*i], q.tree[2*i+1]
		want := l
		if before(q.keys[r], q.keys[l]) {
			want = r
		}
		if q.keys[q.tree[i]] != q.keys[want] {
			return "an internal node does not name the better of its children's winners"
		}
	}
	return ""
}

// TestSlotQueueAgainstModel drives the queue with a seeded sequence of set,
// re-set and remove-min operations and checks it against a plain table of
// (at, seq) per id: the root is always the table's minimum, every id's key
// is its own slot or notQueued, and the tree's invariants hold.
func TestSlotQueueAgainstModel(t *testing.T) {
	const ids, steps = 48, 100_000
	rng := xrand.NewXoshiro256(24)
	q := newSlotQueue(ids)
	model := map[int32]slot{}

	check := func(step int) {
		t.Helper()
		for id := int32(0); id < int32(len(q.keys)); id++ {
			want, queued := model[id]
			if !queued {
				want = notQueued
			}
			if q.keys[id] != want {
				t.Fatalf("step %d: keys[%d] = %+v, want %+v", step, id, q.keys[id], want)
			}
		}
		if msg := checkTree(&q); msg != "" {
			t.Fatalf("step %d: %s", step, msg)
		}
	}
	modelMin := func() (int32, slot) {
		best, bk := int32(-1), notQueued
		for id, k := range model {
			if best < 0 || before(k, bk) {
				best, bk = id, k
			}
		}
		return best, bk
	}

	for step := 0; step < steps; step++ {
		if len(model) > 0 && rng.Intn(3) == 0 {
			id, k := modelMin()
			if gid, got := q.min(); gid != id || got != k {
				t.Fatalf("step %d: min = id %d %+v, want id %d %+v", step, gid, got, id, k)
			}
			q.remove(id)
			delete(model, id)
		} else {
			// Few distinct times, so ties on at are common and seq decides.
			id, at := int32(rng.Intn(ids)), int64(rng.Intn(64))
			q.set(id, at)
			model[id] = slot{at, q.seq}
		}
		check(step)
	}
	if _, s := q.min(); len(model) == 0 && s != notQueued {
		t.Fatalf("empty model but min = %+v", s)
	}
	if q.seq == 0 || len(q.keys) != 64 || len(q.tree) != 128 {
		t.Fatalf("seq = %d, %d keys, %d tree nodes: the queue must number every set and hold 64 leaves for 48 ids",
			q.seq, len(q.keys), len(q.tree))
	}
}

// TestScheduleThenFireAllocatesNothing pins the point of the slot queue: an
// activation is a rewrite inside preallocated arrays.
func TestScheduleThenFireAllocatesNothing(t *testing.T) {
	const ids = 48
	q := newSlotQueue(ids)
	for id := int32(0); id < ids; id++ {
		q.set(id, int64(id))
	}
	now := int64(ids)
	if n := testing.AllocsPerRun(1000, func() {
		due, _ := q.min()
		q.remove(due)
		q.set(due, now)
		q.set((due+7)%ids, now+3) // supersede another id's slot
		now++
	}); n != 0 {
		t.Fatalf("schedule-then-fire allocates %v times per event", n)
	}
}
