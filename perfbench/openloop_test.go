package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// A stall charges its wait to every request scheduled behind it: their
// latency counts from the due time, not from when they were sent.
func TestOpenLoopCountsLatencyFromDueTime(t *testing.T) {
	const (
		rate    = 200.0 // one request due every 5 ms
		stallAt = 5
		stall   = 150 * time.Millisecond
	)
	samples := openLoop(context.Background(), rate, 500*time.Millisecond, time.Second, 1, func(i int) error {
		if i == stallAt {
			time.Sleep(stall)
		}
		return nil
	})
	if len(samples) != 100 {
		t.Fatalf("got %d samples, want 100", len(samples))
	}
	for _, s := range samples {
		if s.err != nil {
			t.Fatalf("unexpected error: %v", s.err)
		}
	}
	if got := samples[stallAt].latency(); got < stall {
		t.Errorf("stalled request latency %v, want at least %v", got, stall)
	}
	// The next request was due 5 ms after the stalled one but could only
	// be sent once the stall ended.
	next := samples[stallAt+1]
	if next.lateness() < stall-20*time.Millisecond {
		t.Errorf("request after the stall was %v late, want about %v", next.lateness(), stall-5*time.Millisecond)
	}
	if next.latency() < next.lateness() {
		t.Errorf("latency %v is shorter than lateness %v", next.latency(), next.lateness())
	}
	if service := next.end - next.start; next.latency()-service < stall-20*time.Millisecond {
		t.Errorf("latency %v does not include the wait behind the stall (service %v)", next.latency(), service)
	}
	// With fast requests the generator catches up again.
	if last := samples[len(samples)-1]; last.lateness() > 50*time.Millisecond {
		t.Errorf("generator still %v late at the end", last.lateness())
	}
}

// A request that cannot start within the grace period is recorded as
// not sent, so an overloaded rung ends and counts as failed.
func TestOpenLoopGiveUpWhenFarBehind(t *testing.T) {
	samples := openLoop(context.Background(), 100, 100*time.Millisecond, 50*time.Millisecond, 1, func(i int) error {
		time.Sleep(40 * time.Millisecond)
		return nil
	})
	var notSent int
	for _, s := range samples {
		if s.err == errNotSent {
			notSent++
		}
	}
	if notSent == 0 {
		t.Fatal("no request was given up, though the schedule overran its grace period")
	}
	r := judge(100, samples, nil, time.Second)
	if r.OK || r.Failed != notSent {
		t.Errorf("judge = %+v, want a failed rung with %d failures", r, notSent)
	}
}

// The ladder finds the highest rate a handler of known capacity serves
// within the limit: the handler serves one request at a time in 2 ms,
// so it manages 500 requests per second. The rungs straddle that
// capacity, so only a ladder that stops at the rung just below it
// passes.
func TestLadderAgainstKnownCapacity(t *testing.T) {
	var mu sync.Mutex
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		sleepPrecise(2 * time.Millisecond)
		mu.Unlock()
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	client := srv.Client()
	op := func(int) error {
		resp, err := client.Get(srv.URL)
		if err != nil {
			return err
		}
		resp.Body.Close()
		return nil
	}
	limit := 50 * time.Millisecond
	maxRate, rungs := ladder([]float64{250, 400, 800, 1600}, func(rate float64) rung {
		s := openLoop(context.Background(), rate, 500*time.Millisecond, 200*time.Millisecond, 2, op)
		return judge(rate, s, nil, limit)
	})
	if maxRate != 400 {
		t.Errorf("max rate %v, want 400 (the rung just below the 500/s capacity); rungs %+v", maxRate, rungs)
	}
	if len(rungs) != 3 || rungs[2].OK {
		t.Errorf("ladder should stop at the first rung above capacity (800/s); rungs %+v", rungs)
	}
}

func TestJudgeLimits(t *testing.T) {
	ms := time.Millisecond
	mk := func(n int, lat, late time.Duration) []sample {
		s := make([]sample, n)
		for i := range s {
			s[i] = sample{due: 0, start: late, end: late + lat}
		}
		return s
	}
	if r := judge(1, mk(100, ms, 0), mk(10, 5*ms, 0), 10*ms); !r.OK {
		t.Errorf("fast on-time run judged failing: %+v", r)
	}
	if r := judge(1, mk(100, 20*ms, 0), nil, 10*ms); r.OK {
		t.Errorf("p99 over the limit judged passing: %+v", r)
	}
	// The other lane counts for failures and backlog, not for p99.
	if r := judge(1, mk(100, ms, 0), mk(10, ms, 30*ms), 10*ms); r.OK || r.P99ms > 10 {
		t.Errorf("late other lane judged passing, or its latency counted in p99: %+v", r)
	}
	failed := mk(10, ms, 0)
	failed[3].err = errNotSent
	if r := judge(1, mk(100, ms, 0), failed, 10*ms); r.OK || r.Failed != 1 {
		t.Errorf("failure on the other lane not counted: %+v", r)
	}
}
