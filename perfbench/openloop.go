package main

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// errNotSent marks a scheduled request the generator never issued
// because it ran too far behind its schedule; it counts as failed.
var errNotSent = errors.New("not sent: generator fell behind its schedule")

// sample is one scheduled request of an open-loop run. Times are
// offsets from the run's start. Latency counts from the due time, so a
// stall that delays later sends is charged to every request it delays.
type sample struct {
	due, start, end time.Duration
	err             error
}

func (s sample) latency() time.Duration  { return s.end - s.due }
func (s sample) lateness() time.Duration { return s.start - s.due }

// openLoop issues rate requests per second for d, over conns
// connections, whatever the previous requests' fate. Request i is due
// at i/rate; a connection that is still busy sends it late. A request
// not yet started when the schedule has overrun d by grace is recorded
// as errNotSent instead of being sent, so an overloaded run ends.
// op must be safe for concurrent use and returns nil on success.
func openLoop(ctx context.Context, rate float64, d, grace time.Duration, conns int, op func(i int) error) []sample {
	n := int(rate * d.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	samples := make([]sample, n)
	var next atomic.Int64
	begin := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := time.Duration(i) * interval
				if wait := due - time.Since(begin); wait > 0 {
					sleepPrecise(wait)
				}
				start := time.Since(begin)
				if start > d+grace || ctx.Err() != nil {
					samples[i] = sample{due: due, start: start, end: start, err: errNotSent}
					continue
				}
				err := op(i)
				samples[i] = sample{due: due, start: start, end: time.Since(begin), err: err}
			}
		}()
	}
	wg.Wait()
	return samples
}

// sleepPrecise blocks the calling thread in nanosleep. The runtime's
// timers wake a sleeper only at millisecond granularity when every
// thread is idle, which at a request per millisecond would charge the
// generator's own wake-up slack to the system under test.
func sleepPrecise(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// rung is the verdict on one rate of the capacity ladder.
type rung struct {
	Rate     float64 `json:"rate"`
	Requests int     `json:"requests"`
	Failed   int     `json:"failed"`
	P99ms    float64 `json:"p99_ms"`
	LateMs   float64 `json:"late_last_quarter_ms"`
	OK       bool    `json:"ok"`
}

// judge decides whether an open-loop run at rate met the latency limit:
// no request of either lane failed, the nearest-rank p99 latency of the
// measured lane is within limit, and each lane's lateness over the last
// quarter of its schedule (median) stayed within limit — a backlog that
// keeps growing shows there first.
func judge(rate float64, measured, other []sample, limit time.Duration) rung {
	r := rung{Rate: rate, Requests: len(measured) + len(other)}
	var lat []float64
	for _, s := range measured {
		if s.err == nil {
			lat = append(lat, s.latency().Seconds())
		}
	}
	if len(lat) > 0 {
		r.P99ms = 1000 * percentile(lat, 99)
	}
	for _, lane := range [][]sample{measured, other} {
		var lateTail []float64
		for i, s := range lane {
			if s.err != nil {
				r.Failed++
			} else if i >= len(lane)*3/4 {
				lateTail = append(lateTail, s.lateness().Seconds())
			}
		}
		if len(lateTail) > 0 {
			r.LateMs = math.Max(r.LateMs, 1000*median(lateTail))
		}
	}
	r.OK = r.Failed == 0 && len(lat) > 0 &&
		r.P99ms <= 1000*limit.Seconds() && r.LateMs <= 1000*limit.Seconds()
	return r
}

// ladder runs the rates in ascending order until one fails and returns
// the highest rate that passed (0 when none did) with every rung run.
func ladder(rates []float64, run func(rate float64) rung) (maxRate float64, rungs []rung) {
	for _, rate := range rates {
		r := run(rate)
		rungs = append(rungs, r)
		if !r.OK {
			break
		}
		maxRate = rate
	}
	return maxRate, rungs
}
