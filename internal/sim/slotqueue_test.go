package sim

import (
	"testing"

	"palirria/internal/xrand"
)

// TestSlotQueueAgainstModel drives the queue with a seeded sequence of set,
// re-set and remove-min operations and checks it against a plain table of
// (at, seq) per id: the root is always the table's minimum and idx always
// names the position of the id's own slot.
func TestSlotQueueAgainstModel(t *testing.T) {
	const ids, steps = 48, 100_000
	type key struct {
		at  int64
		seq uint64
	}
	rng := xrand.NewXoshiro256(24)
	q := newSlotQueue(ids)
	model := map[int32]key{}

	check := func(step int) {
		t.Helper()
		if len(q.heap) != len(model) {
			t.Fatalf("step %d: queue holds %d slots, model %d", step, len(q.heap), len(model))
		}
		for id := int32(0); id < ids; id++ {
			want, queued := model[id]
			i := q.idx[id]
			switch {
			case !queued && i != -1:
				t.Fatalf("step %d: id %d is not queued but idx = %d", step, id, i)
			case queued && (i < 0 || int(i) >= len(q.heap)):
				t.Fatalf("step %d: id %d is queued but idx = %d", step, id, i)
			case queued && q.heap[i] != slot{at: want.at, seq: want.seq, id: id}:
				t.Fatalf("step %d: heap[idx[%d]] = %+v, want %+v", step, id, q.heap[i], want)
			}
		}
	}
	modelMin := func() (int32, key) {
		best, bk := int32(-1), key{}
		for id, k := range model {
			if best < 0 || k.at < bk.at || (k.at == bk.at && k.seq < bk.seq) {
				best, bk = id, k
			}
		}
		return best, bk
	}

	for step := 0; step < steps; step++ {
		if len(model) > 0 && rng.Intn(3) == 0 {
			id, k := modelMin()
			if got := q.heap[0]; got.id != id || got.at != k.at || got.seq != k.seq {
				t.Fatalf("step %d: min = %+v, want id %d %+v", step, got, id, k)
			}
			q.remove(id)
			delete(model, id)
		} else {
			// Few distinct times, so ties on at are common and seq decides.
			id, at := int32(rng.Intn(ids)), int64(rng.Intn(64))
			q.set(id, at)
			model[id] = key{at, q.seq}
		}
		check(step)
	}
	if q.seq == 0 || cap(q.heap) != ids {
		t.Fatalf("seq = %d, cap = %d: the queue must number every set and never outgrow one slot per id", q.seq, cap(q.heap))
	}
}

// TestScheduleThenFireAllocatesNothing pins the point of the slot queue: an
// activation is a move inside a preallocated array.
func TestScheduleThenFireAllocatesNothing(t *testing.T) {
	const ids = 48
	q := newSlotQueue(ids)
	for id := int32(0); id < ids; id++ {
		q.set(id, int64(id))
	}
	now := int64(ids)
	if n := testing.AllocsPerRun(1000, func() {
		due := q.heap[0]
		q.remove(due.id)
		q.set(due.id, now)
		q.set((due.id+7)%ids, now+3) // supersede another id's slot
		now++
	}); n != 0 {
		t.Fatalf("schedule-then-fire allocates %v times per event", n)
	}
}
