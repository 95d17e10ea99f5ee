package dataset

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"arcs/internal/obs"
)

// Retry configures retry-with-backoff for transient source errors (see
// IsTransient). Backoff is exponential from Base, capped at Cap, with
// seeded half-jitter so retry storms decorrelate deterministically.
type Retry struct {
	// Max is the number of retries per Next call. Zero disables retrying.
	Max int
	// Base is the first backoff delay. Zero means 1ms.
	Base time.Duration
	// Cap bounds the exponential growth. Zero means 250ms.
	Cap time.Duration
	// Seed drives the jitter; equal seeds replay identical delays.
	Seed int64
	// Sleep replaces time.Sleep in tests. Nil means time.Sleep.
	Sleep func(time.Duration)
}

func (r Retry) withDefaults() Retry {
	if r.Base <= 0 {
		r.Base = time.Millisecond
	}
	if r.Cap <= 0 {
		r.Cap = 250 * time.Millisecond
	}
	if r.Sleep == nil {
		r.Sleep = time.Sleep
	}
	return r
}

// Quarantine configures the row-quarantine policy for malformed input:
// rows that fail with a *RowError, and rows carrying non-finite
// quantitative values, are counted by reason and skipped until the
// per-pass budget runs out.
type Quarantine struct {
	// MaxBadRows is the number of rows each pass may quarantine before
	// the pass fails with ErrTooManyBadRows. Negative means unlimited;
	// zero means any bad row is fatal (the strict default).
	MaxBadRows int
	// OnBad, when set, observes every quarantined row (reason, position,
	// cause) — e.g. to log the first few offenders.
	OnBad func(reason string, row int, err error)
}

// ErrTooManyBadRows is returned (wrapped) when a pass quarantines more
// rows than Quarantine.MaxBadRows allows.
var ErrTooManyBadRows = errors.New("dataset: too many bad rows")

// ResilientStats is a cumulative account of a Resilient source's
// interventions across all passes.
type ResilientStats struct {
	// Retries counts retried Next calls after transient errors.
	Retries int64
	// Quarantined counts skipped rows by RowError reason.
	Quarantined map[string]int64
}

// Total sums the quarantined rows across reasons.
func (s ResilientStats) Total() int64 {
	var n int64
	for _, v := range s.Quarantined {
		n += v
	}
	return n
}

// Resilient wraps a Source with the two graceful-degradation policies a
// served pipeline needs against dirty or flaky input: transient errors
// are retried with jittered exponential backoff, and row-scoped errors
// (plus rows with NaN/±Inf quantitative values) are quarantined and
// skipped within a configurable per-pass budget. Everything else — I/O
// failures, schema mismatches — propagates unchanged.
//
// Like the sources it wraps, a Resilient is not safe for concurrent use.
type Resilient struct {
	ledger
	src   Source
	retry Retry
	rng   *rand.Rand

	quantIdx []int // schema positions of quantitative attributes
	rowsSeen int   // per-pass row counter for non-RowError positions
}

// ledger is the quarantine accounting shared by Resilient and LoadCSV:
// per-pass budget, cumulative stats, metrics and the OnBad hook.
type ledger struct {
	q       Quarantine
	passBad int // per-pass quarantined rows, reset on Reset
	stats   ResilientStats

	// Metrics registry hooks (nil without Observe; all nil-safe).
	retriesC    *obs.Counter
	quarTotalC  *obs.Counter
	reg         *obs.Registry
	quarReasonC map[string]*obs.Counter
}

func newLedger(q Quarantine) ledger {
	return ledger{q: q, stats: ResilientStats{Quarantined: map[string]int64{}}}
}

// NewResilient wraps src with the given retry and quarantine policies.
func NewResilient(src Source, retry Retry, q Quarantine) *Resilient {
	return &Resilient{
		ledger:   newLedger(q),
		src:      src,
		retry:    retry.withDefaults(),
		rng:      rand.New(rand.NewSource(retry.Seed)),
		quantIdx: quantIndexes(src.Schema()),
	}
}

// quantIndexes lists the schema positions of quantitative attributes.
func quantIndexes(schema *Schema) []int {
	var idx []int
	for i := 0; i < schema.Len(); i++ {
		if schema.At(i).Kind == Quantitative {
			idx = append(idx, i)
		}
	}
	return idx
}

// Observe mirrors the retry/quarantine counters into a metrics registry:
// source_retries_total, rows_quarantined_total and per-reason
// rows_quarantined_<reason> counters. Call before streaming.
func (r *ledger) Observe(reg *obs.Registry) {
	r.reg = reg
	r.retriesC = reg.Counter("source_retries_total")
	r.quarTotalC = reg.Counter("rows_quarantined_total")
	r.quarReasonC = map[string]*obs.Counter{}
}

// Stats reports the cumulative interventions so far.
func (r *ledger) Stats() ResilientStats {
	out := ResilientStats{Retries: r.stats.Retries,
		Quarantined: make(map[string]int64, len(r.stats.Quarantined))}
	for k, v := range r.stats.Quarantined {
		out.Quarantined[k] = v
	}
	return out
}

// Schema implements Source.
func (r *Resilient) Schema() *Schema { return r.src.Schema() }

// Reset implements Source; the per-pass quarantine budget starts fresh.
func (r *Resilient) Reset() error {
	r.passBad = 0
	r.rowsSeen = 0
	return r.src.Reset()
}

// Close forwards to the wrapped source when it is closeable.
func (r *Resilient) Close() error {
	if c, ok := r.src.(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}

// Next implements Source with the retry and quarantine policies applied.
func (r *Resilient) Next() (Tuple, error) {
	attempt := 0
	for {
		t, err := r.src.Next()
		if err == nil {
			r.rowsSeen++
			if nonFinite(t, r.quantIdx) {
				if qerr := r.quarantine("non-finite", r.rowsSeen,
					fmt.Errorf("non-finite value in row %d", r.rowsSeen)); qerr != nil {
					return nil, qerr
				}
				attempt = 0
				continue
			}
			return t, nil
		}
		if err == io.EOF {
			return nil, err
		}
		if re := AsRowError(err); re != nil {
			if qerr := r.quarantine(re.Reason, re.Row, err); qerr != nil {
				return nil, qerr
			}
			attempt = 0
			continue
		}
		if IsTransient(err) && attempt < r.retry.Max {
			attempt++
			r.stats.Retries++
			r.retriesC.Inc()
			r.retry.Sleep(r.backoff(attempt))
			continue
		}
		if attempt > 0 {
			return nil, fmt.Errorf("dataset: giving up after %d retries: %w", attempt, err)
		}
		return nil, err
	}
}

// backoff computes the jittered exponential delay for the given retry
// attempt (1-based): half the capped exponential step fixed, half drawn
// from the seeded RNG.
func (r *Resilient) backoff(attempt int) time.Duration {
	d := r.retry.Base << uint(attempt-1)
	if d <= 0 || d > r.retry.Cap {
		d = r.retry.Cap
	}
	half := d / 2
	return half + time.Duration(r.rng.Int63n(int64(half)+1))
}

// nonFinite reports whether any of the tuple's quantitative attributes
// (at positions quantIdx) is NaN or ±Inf.
func nonFinite(t Tuple, quantIdx []int) bool {
	for _, i := range quantIdx {
		if v := t[i]; math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}

// quarantine accounts one skipped row; the returned error is non-nil
// once the per-pass budget is exhausted.
func (r *ledger) quarantine(reason string, row int, cause error) error {
	if reason == "" {
		reason = "row-error"
	}
	r.passBad++
	r.stats.Quarantined[reason]++
	r.quarTotalC.Inc()
	if r.reg != nil {
		c, ok := r.quarReasonC[reason]
		if !ok {
			c = r.reg.Counter("rows_quarantined_" + reason)
			r.quarReasonC[reason] = c
		}
		c.Inc()
	}
	if r.q.OnBad != nil {
		r.q.OnBad(reason, row, cause)
	}
	if r.q.MaxBadRows >= 0 && r.passBad > r.q.MaxBadRows {
		return fmt.Errorf("%w: %d quarantined this pass exceeds budget %d (last: %v)",
			ErrTooManyBadRows, r.passBad, r.q.MaxBadRows, cause)
	}
	return nil
}
