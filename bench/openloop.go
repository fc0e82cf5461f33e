package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
)

// openLoop sends operations on a schedule that does not depend on how the
// system answers: independent users do not wait for each other. Every
// operation is timed from the moment it was due, so a stall (in the system
// or in this generator) is charged to every operation it delayed, and the
// generator's own lateness — sent minus due — is reported beside the
// latencies instead of hiding inside them.
type openLoop struct {
	// now returns monotonic nanoseconds; sleep blocks for d. Tests replace
	// both with a virtual clock.
	now   func() int64
	sleep func(d time.Duration)
}

// realOpenLoop paces on the benchmark's own clock and sleeps in
// nanosleep(2). time.Sleep would not do: the Go runtime parks an idle
// thread in epoll_wait, whose timeout counts whole milliseconds, so a
// 250 µs wait measured 1.1 ms on the host the bounds were set on, and a
// 4000/s schedule would leave the generator in bunches of four.
func realOpenLoop() openLoop {
	return openLoop{
		now: nowNS,
		sleep: func(d time.Duration) {
			ts := syscall.NsecToTimespec(int64(d))
			// An early return (EINTR) only means the caller's loop asks again.
			_ = syscall.Nanosleep(&ts, nil)
		},
	}
}

// sleepSlack is how early a sleep is asked to end: nanosleep overshoots by
// 70-90 µs, and the rest of the wait is spent yielding.
const sleepSlack = 100 * time.Microsecond

// run dispatches operation i at start+due[i] (due is ascending, in
// nanoseconds) and returns once every operation has finished. do receives
// the absolute due time and the time the operation actually left the
// generator. clients == 0 gives every operation its own goroutine (callers
// that block in-process); clients > 0 shares that many, the way a fixed
// set of keep-alive connections does, and an operation that finds them all
// busy waits its turn with the clock running.
func (o openLoop) run(start int64, due []int64, clients int, do func(i int, dueAbs, sent int64)) {
	var wg sync.WaitGroup
	wg.Add(len(due))
	var queue chan int
	if clients > 0 {
		// Sized to the number of sends so the dispatcher never blocks on a
		// slow client: that would turn the open loop into a closed one.
		queue = make(chan int, len(due))
		for c := 0; c < clients; c++ {
			go func() {
				for i := range queue {
					do(i, start+due[i], o.now())
					wg.Done()
				}
			}()
		}
	}
	for i, d := range due {
		for {
			wait := start + d - o.now()
			if wait <= 0 {
				break
			}
			if wait > int64(sleepSlack+50*time.Microsecond) {
				o.sleep(time.Duration(wait) - sleepSlack)
			} else {
				runtime.Gosched()
			}
		}
		if queue != nil {
			queue <- i
			continue
		}
		go func(i int, dueAbs int64) {
			do(i, dueAbs, o.now())
			wg.Done()
		}(i, start+d)
	}
	if queue != nil {
		close(queue)
	}
	wg.Wait()
}

// phase is one constant-rate stretch of a schedule.
type phase struct {
	Name   string  `json:"name"`
	Rate   float64 `json:"rate_per_s"`
	Length float64 `json:"seconds"`
}

// arrival is one scheduled operation: when it is due (nanoseconds from the
// start of the timed phase), which phase and which window it belongs to.
type arrival struct {
	due    int64
	phase  int
	window int
}

// schedule lays the phases end to end, repeats that cycle cycles times and
// spaces arrivals evenly within a phase. One cycle is one window: every
// window then holds the same traffic, so window values are comparable.
func schedule(phases []phase, cycles int) []arrival {
	var out []arrival
	var t float64 // seconds
	for c := 0; c < cycles; c++ {
		for pi, p := range phases {
			n := int(p.Rate * p.Length)
			for k := 0; k < n; k++ {
				out = append(out, arrival{
					due:    int64((t + float64(k)/p.Rate) * 1e9),
					phase:  pi,
					window: c,
				})
			}
			t += p.Length
		}
	}
	return out
}
