package serve

// shedLadder is the overload ratchet as a clock-free value: it sees one
// (filtered desire, capacity, resident jobs) triple per quantum and answers
// with the shed level — 0 admits everything, level L sheds every class
// below L (low at 1, normal at 2, high at 3). Pool.noteQuantum steps it on
// the runtime's helper goroutine; nothing in it reads a clock or an
// atomic, so tests replay quantum sequences on the bare value.
type shedLadder struct {
	shedQuanta, queueCap int
	// pinned counts consecutive quanta of filtered desire at capacity.
	pinned int
	level  int32
}

// step folds one quantum into the ladder and returns the level. It arms
// after shedQuanta consecutive pinned quanta with a saturated queue and
// escalates one class per further shedQuanta; the level only ratchets up —
// a partially drained queue holds it — until desire drops below capacity,
// or until a shedding pool drains empty (a pool whose minimum allotment
// equals its capacity never sees desire drop, so an empty pool is its only
// unambiguous recovery signal).
func (l *shedLadder) step(filtered, capacity, resident int) int32 {
	if filtered >= capacity {
		l.pinned++
	} else {
		l.pinned, l.level = 0, 0
	}
	if l.pinned >= l.shedQuanta && resident >= l.queueCap {
		if lvl := min(int32(l.pinned/l.shedQuanta), int32(NumClasses)); lvl > l.level {
			l.level = lvl
		}
	} else if l.level > 0 && resident == 0 {
		l.pinned, l.level = 0, 0
	}
	return l.level
}
