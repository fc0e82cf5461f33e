package wsrt

import "time"

// clockBase anchors the runtime clock. All timestamps in this package are
// differences (wall spans, per-phase accounting, ring-event offsets from
// startNS), never absolute wall-clock instants, so nowNS reads the
// monotonic clock: time.Since on a monotonic base compiles down to one
// runtime nanotime call (~38ns on the bench box) where
// time.Now().UnixNano() pays for the full wall-clock read (~67ns) — and
// the monotonic reading is immune to wall-clock steps, which previously
// could produce negative task durations under NTP adjustment.
//
// nowNS sits on the hottest paths in the package. runTask — roots, stolen
// tasks, shard pops — reads it once per task when the task follows
// another at depth 0 (the phase boundary is reused), twice when it closes
// a search episode or is a leapfrog steal nested in a task. Sync's
// leapfrog stamps each probe and backoff sleep. Children popped back at
// Sync or run inline on a full deque go through runInline and read no
// clock, so the clock is paid per root and per steal, not per spawn — a
// first-order term in persistent-mode submit throughput.
var clockBase = time.Now()

func nowNS() int64 { return int64(time.Since(clockBase)) }
