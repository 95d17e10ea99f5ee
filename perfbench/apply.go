package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"arcs/internal/dataset"
	"arcs/internal/segment"
	"arcs/internal/segment/registry"
	"arcs/internal/synth"
)

// The apply traffic: applyRate requests per second in two open-loop
// lanes of one connection each. The tuple lane sends single tuples; the
// batch lane, a fiftieth of the rate, sends batchPoints-point batches
// and, once a second, an activation of the next published model, so
// registry writes run beside reads. Keeping tuples off the batch
// connection means a tuple waits on the daemon, never behind a batch in
// the generator.
const (
	applyRate   = 1000.0
	batchShare  = 0.02
	applyConns  = 2 // one per lane
	batchPoints = 10_000
	tuplePool   = 4096
	batchPool   = 4
	// applyModels synth mining jobs of modelTuples tuples each give the
	// published group-A segmentations. Four, like the closed-loop
	// workloads' four inputs, so one seed's extra rule moves rules and
	// error_pct by a quarter rather than a half.
	applyModels = 4
	modelTuples = 100_000
	// applyLimit is the latency limit on tuple p99 for the capacity
	// ladder.
	applyLimit = 10 * time.Millisecond
	// fixedShare is the share of the run spent at applyRate; the rest
	// climbs the ladder.
	fixedShare = 0.7
	warmup     = 500 * time.Millisecond
	// The gated op_* metrics of apply treat one batch request as the
	// operation. A request that takes a few hundred microseconds (a
	// single tuple) or a couple of milliseconds (a 1000-point batch) is
	// mostly wake-ups, and on a VM each wake-up of an idle vCPU waits on
	// the host: their medians doubled and their p75s tripled in runs
	// during which the hypervisor stole a fifth of the vCPUs. A
	// 10,000-point batch is ~15 ms of decoding, scoring and encoding, so
	// its median and p75 move mostly with the machine's speed: under the
	// same steal its median rose by about a third. The record keeps the
	// tuple p50/p99, the batch p90 and the steal for reference.
	tailPercentile = 75
)

var ladderRates = []float64{1000, 2000, 4000, 8000}

// isSwap reports whether request i of a batch lane running at rate
// requests per second is the once-a-second activation.
func isSwap(i int, rate float64) bool {
	return i%int(rate) == int(rate)-1
}

// applyFixture is a running daemon with the published models, the
// pre-encoded request pool with every expected answer per model, and
// the models' mean error on the held-out table the pool is drawn from.
type applyFixture struct {
	d      *daemon
	client *http.Client
	ids    []string
	models map[string]*segment.Model

	tupleBodies [][]byte
	wantCovered map[string][]bool

	batches     [][][2]float64
	batchBodies [][]byte
	wantResults map[string][][]bool
	wantMatched map[string][]int

	errPct float64
	swaps  atomic.Int64
}

// setupApply boots arcsd on a fresh registry, mines the segmentations
// through it, publishes them and activates the first. It then stops
// that daemon and boots the one that serves on the same registry, so
// the serving daemon's memory high-water mark is set by serving alone.
func setupApply(ctx context.Context, cfg config, i int) (*daemon, []string, time.Duration, error) {
	start := time.Now()
	dir := filepath.Join(cfg.work, fmt.Sprintf("registry-%d", i))
	miner, _, err := startDaemon(ctx, cfg, fmt.Sprintf("arcsd-mine-%d.log", i), 1, "-registry", dir)
	if err != nil {
		return nil, nil, 0, err
	}
	ids, err := publishModels(ctx, cfg, miner)
	miner.stop()
	if err != nil {
		return nil, ids, 0, err
	}
	d, _, err := startDaemon(ctx, cfg, fmt.Sprintf("arcsd-%d.log", i), applyConns, "-registry", dir)
	if err != nil {
		return nil, ids, 0, err
	}
	var list struct {
		Active string `json:"active"`
	}
	if err := d.call(http.MethodGet, "/models", nil, http.StatusOK, &list); err != nil {
		d.stop()
		return nil, ids, 0, err
	}
	if list.Active != ids[0] {
		d.stop()
		return nil, ids, 0, fmt.Errorf("reopened registry serves %q, want %s", list.Active, ids[0])
	}
	return d, ids, time.Since(start), nil
}

// publishModels mines applyModels segmentations through d, publishes
// them and activates the first.
func publishModels(ctx context.Context, cfg config, d *daemon) ([]string, error) {
	ids := make([]string, applyModels)
	for k := range ids {
		spec := map[string]any{
			"synth": jobSynth(inputSeed(cfg, k), modelTuples),
			"x":     "age", "y": "salary", "crit": "group", "value": synth.GroupA,
		}
		_, st, err := runJob(ctx, d, spec)
		if err == nil && st.State != "done" {
			err = fmt.Errorf("mining job %s ended %s: %s", st.ID, st.State, st.Error)
		}
		if err != nil {
			return ids, err
		}
		var pub struct {
			ID string `json:"id"`
		}
		if err := d.call(http.MethodPost, "/models", map[string]any{"run": st.ID, "value": synth.GroupA},
			http.StatusCreated, &pub); err != nil {
			return ids, err
		}
		ids[k] = pub.ID
	}
	return ids, d.call(http.MethodPost, "/models/"+ids[0]+"/activate", nil, http.StatusOK, nil)
}

// newApplyFixture fetches the published models and builds the
// request pool from the first rows of a held-out synthetic table.
func newApplyFixture(cfg config, d *daemon, ids []string) (*applyFixture, error) {
	f := &applyFixture{
		d: d, ids: ids,
		client:      &http.Client{Timeout: 2 * time.Second, Transport: d.client.Transport},
		models:      map[string]*segment.Model{},
		wantCovered: map[string][]bool{},
		wantResults: map[string][][]bool{},
		wantMatched: map[string][]int{},
	}
	for _, id := range ids {
		var doc struct {
			Model json.RawMessage `json:"model"`
		}
		if err := d.call(http.MethodGet, "/models/"+id, nil, http.StatusOK, &doc); err != nil {
			return nil, err
		}
		m, err := segment.Read(bytes.NewReader(doc.Model))
		if err != nil {
			return nil, fmt.Errorf("model %s: %w", id, err)
		}
		f.models[id] = m
	}

	gen, err := synth.New(synth.Config{
		Function: 2, N: heldOutN, Seed: cfg.seed + heldOutSeedShift,
		Perturbation: perturbation, OutlierFraction: outliers, FracA: fracA,
	})
	if err != nil {
		return nil, err
	}
	tb, err := dataset.Materialize(gen)
	if err != nil {
		return nil, err
	}
	schema := tb.Schema()
	ageIdx, salIdx, grpIdx := schema.MustIndex("age"), schema.MustIndex("salary"), schema.MustIndex("group")
	codeA, err := schema.At(grpIdx).CategoryCode(synth.GroupA)
	if err != nil {
		return nil, err
	}
	point := func(row int) [2]float64 {
		t := tb.Row(row)
		return [2]float64{t[ageIdx], t[salIdx]}
	}

	// error_pct: the served models scored locally on the whole table
	// (every served answer is checked against this same scoring).
	for _, m := range f.models {
		wrong := 0
		for row := 0; row < tb.Len(); row++ {
			p := point(row)
			if m.Covers(p[0], p[1]) != (int(tb.Row(row)[grpIdx]) == codeA) {
				wrong++
			}
		}
		f.errPct += 100 * float64(wrong) / float64(tb.Len()) / float64(len(f.models))
	}

	row := 0
	for ; row < tuplePool; row++ {
		p := point(row)
		body, err := json.Marshal(map[string]any{"tuple": map[string]float64{"age": p[0], "salary": p[1]}})
		if err != nil {
			return nil, err
		}
		f.tupleBodies = append(f.tupleBodies, body)
		for id, m := range f.models {
			f.wantCovered[id] = append(f.wantCovered[id], m.Covers(p[0], p[1]))
		}
	}
	for b := 0; b < batchPool; b++ {
		pts := make([][2]float64, batchPoints)
		for j := range pts {
			pts[j] = point(row)
			row++
		}
		body, err := json.Marshal(map[string]any{"points": pts})
		if err != nil {
			return nil, err
		}
		f.batches = append(f.batches, pts)
		f.batchBodies = append(f.batchBodies, body)
		for id, m := range f.models {
			res := make([]bool, batchPoints)
			f.wantMatched[id] = append(f.wantMatched[id], m.ApplyPoints(pts, res))
			f.wantResults[id] = append(f.wantResults[id], res)
		}
	}
	return f, nil
}

// lanes is one open-loop run of both lanes.
type lanes struct{ tuples, batches []sample }

// run drives the mix at rate requests per second for d.
func (f *applyFixture) run(ctx context.Context, rate float64, d time.Duration) lanes {
	var l lanes
	batchRate := rate * batchShare
	done := make(chan struct{})
	go func() {
		defer close(done)
		l.batches = openLoop(ctx, batchRate, d, d/2, 1, func(i int) error { return f.batchLane(i, batchRate) })
	}()
	l.tuples = openLoop(ctx, rate-batchRate, d, d/2, 1, f.tuple)
	<-done
	return l
}

// tuple scores tuple i of the pool and checks the answer.
func (f *applyFixture) tuple(i int) error {
	j := i % tuplePool
	var resp struct {
		Model   string `json:"model"`
		Covered bool   `json:"covered"`
	}
	if err := f.post("/apply", f.tupleBodies[j], &resp); err != nil {
		return err
	}
	want, ok := f.wantCovered[resp.Model]
	if !ok {
		return errWrong{fmt.Sprintf("tuple answered by unpublished model %q", resp.Model)}
	}
	if resp.Covered != want[j] {
		return errWrong{fmt.Sprintf("tuple %d scored by %s: covered=%v, local scoring says %v", j, resp.Model, resp.Covered, want[j])}
	}
	return nil
}

// batchLane performs request i of a batch lane at rate and checks its
// answer: a batch, or the once-a-second activation.
func (f *applyFixture) batchLane(i int, rate float64) error {
	if isSwap(i, rate) {
		target := f.ids[int(f.swaps.Add(1))%len(f.ids)]
		var resp struct {
			Active string `json:"active"`
		}
		if err := f.post("/models/"+target+"/activate", nil, &resp); err != nil {
			return err
		}
		if resp.Active != target {
			return errWrong{fmt.Sprintf("activated %s, daemon reports %s active", target, resp.Active)}
		}
		return nil
	}
	j := i % batchPool
	var resp struct {
		Model   string `json:"model"`
		Total   int    `json:"total"`
		Matched int    `json:"matched"`
		Results []bool `json:"results"`
	}
	if err := f.post("/apply", f.batchBodies[j], &resp); err != nil {
		return err
	}
	want, ok := f.wantResults[resp.Model]
	if !ok {
		return errWrong{fmt.Sprintf("batch answered by unpublished model %q", resp.Model)}
	}
	if resp.Total != batchPoints || resp.Matched != f.wantMatched[resp.Model][j] || !boolsEqual(resp.Results, want[j]) {
		return errWrong{fmt.Sprintf("batch %d scored by %s differs from local scoring", j, resp.Model)}
	}
	return nil
}

// post sends body (nil for none) and decodes a 200 reply into out; any
// other status, including 429 and 5xx, is a failure.
func (f *applyFixture) post(path string, body []byte, out any) error {
	resp, err := f.client.Post(f.d.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return json.Unmarshal(b, out)
}

func boolsEqual(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// latencies returns the lanes' successful tuple and batch latencies,
// in seconds from each request's due time, and every request's
// lateness.
func (l lanes) latencies(rate float64) (tuples, batches, lateness []float64) {
	for _, s := range l.tuples {
		if s.err == nil {
			tuples = append(tuples, s.latency().Seconds())
			lateness = append(lateness, s.lateness().Seconds())
		}
	}
	for i, s := range l.batches {
		if s.err == nil {
			if !isSwap(i, rate*batchShare) {
				batches = append(batches, s.latency().Seconds())
			}
			lateness = append(lateness, s.lateness().Seconds())
		}
	}
	return tuples, batches, lateness
}

// tally counts a run's requests into the outcome: failures, and wrong
// answers, which also mark the run incorrect.
func (l lanes) tally(out *outcome, what string) {
	for _, s := range append(append([]sample(nil), l.tuples...), l.batches...) {
		out.attempted++
		if s.err != nil {
			out.fail(isWrong(s.err), "%s: %v", what, s.err)
		}
	}
}

// warm runs the mix briefly to open connections and grow the daemon's
// heap; its requests are not measured, but a wrong answer still counts.
func warm(ctx context.Context, f *applyFixture, out *outcome) {
	l := f.run(ctx, applyRate, warmup)
	for _, s := range append(l.tuples, l.batches...) {
		if isWrong(s.err) {
			out.wrongAnswer("warm-up: %v", s.err)
		}
	}
}

func meanRules(f *applyFixture) float64 {
	var n int
	for _, m := range f.models {
		n += len(m.Rules)
	}
	return float64(n) / float64(len(f.models))
}

// startApply runs the set-up repeats times, keeping the last daemon,
// and builds the fixture on it. It returns the set-up times scaled by
// the yardstick and as measured.
func startApply(ctx context.Context, cfg config, y *yardstick, repeats int) (*applyFixture, []float64, []float64, error) {
	var setups, raw []float64
	for i := 0; ; i++ {
		before := y.measure()
		d, ids, dur, err := setupApply(ctx, cfg, i)
		if err != nil {
			return nil, nil, nil, err
		}
		setups = append(setups, dur.Seconds()*wallFactor(before, y.measure()))
		raw = append(raw, dur.Seconds())
		if i < repeats-1 {
			d.stop()
			continue
		}
		f, err := newApplyFixture(cfg, d, ids)
		if err != nil {
			d.stop()
			return nil, nil, nil, err
		}
		return f, setups, raw, nil
	}
}

func measureApply(ctx context.Context, cfg config) (*outcome, error) {
	// The generator's own collections would stall its sends; a larger
	// heap target makes them rarer. The daemon keeps its defaults.
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	// The daemon decodes, scores and encodes a batch on one thread.
	y := newYardstick(1)
	f, setups, rawSetups, err := startApply(ctx, cfg, y, setupRepeats)
	if err != nil {
		return nil, err
	}
	defer f.d.stop()
	out := newOutcome()

	warm(ctx, f, out)

	// The fixed-rate phase runs in one-second slices with a yardstick
	// run between slices, while the daemon is idle, so each slice's
	// latencies and daemon CPU are scaled by the machine's speed around
	// that slice. Each slice holds one activation.
	slices := int(math.Round(fixedShare * cfg.seconds))
	var tuples, batches, rawBatches, lateness []float64
	var cpu, rawCPU float64
	var requests int
	before := y.measure()
	for i := 0; i < slices && ctx.Err() == nil; i++ {
		cpu0, err := procCPU(f.d.pid())
		if err != nil {
			return nil, err
		}
		l := f.run(ctx, applyRate, time.Second)
		cpu1, err := procCPU(f.d.pid())
		if err != nil {
			return nil, err
		}
		after := y.measure()
		k, kc := wallFactor(before, after), cpuFactor(before, after)
		before = after
		l.tally(out, "fixed-rate")
		requests += len(l.tuples) + len(l.batches)
		cpu += (cpu1 - cpu0) * kc
		rawCPU += cpu1 - cpu0
		t, b, late := l.latencies(applyRate)
		tuples = append(tuples, t...)
		lateness = append(lateness, late...)
		rawBatches = append(rawBatches, b...)
		for _, x := range b {
			batches = append(batches, x*k)
		}
	}
	hwm, err := procHWM(f.d.pid())
	if err != nil {
		return nil, err
	}
	if len(tuples) == 0 || len(batches) < 10*minBeyond {
		return nil, fmt.Errorf("too few successful requests (%d tuples, %d batches)", len(tuples), len(batches))
	}

	// The ladder: the same mix at rising rates until one misses the
	// limit. Its requests are not part of attempted/failed, since
	// failing is how a rung above capacity ends, but a wrong answer on
	// any rung still marks the run incorrect.
	rungDur := time.Duration((1 - fixedShare) * cfg.seconds / float64(len(ladderRates)) * float64(time.Second))
	maxRPS, rungs := ladder(ladderRates, func(rate float64) rung {
		l := f.run(ctx, rate, rungDur)
		for _, x := range append(l.tuples, l.batches...) {
			if isWrong(x.err) {
				out.wrongAnswer("ladder %.0f/s: %v", rate, x.err)
			}
		}
		return judge(rate, l.tuples, l.batches, applyLimit)
	})

	m := out.metrics
	batchP50 := median(batches)
	m["setup_s"] = median(setups)
	m["op_p50_s"] = batchP50
	m["op_tail_s"] = percentile(batches, tailPercentile)
	m["tuples_per_s"] = batchPoints / batchP50
	m["cpu_s_per_op"] = cpu / float64(requests)
	m["peak_rss_mb"] = hwm
	m["error_pct"] = f.errPct
	m["rules"] = meanRules(f)
	out.extra["tuple_p50_ms"] = 1000 * median(tuples)
	out.extra["tuple_p99_ms"] = 1000 * percentile(tuples, 99)
	out.extra["batch_p50_ms"] = 1000 * median(rawBatches)
	out.extra["batch_p90_ms"] = 1000 * percentile(rawBatches, 90)
	out.extra["max_rps"] = maxRPS
	out.extra["ladder"] = rungs
	out.extra["latency_limit_ms"] = 1000 * applyLimit.Seconds()
	out.extra["op_tail"] = map[string]any{"of": "batch latency", "percentile": tailPercentile, "samples": len(batches)}
	out.extra["highest_tail"], _ = tail(tuples)
	out.extra["generator_late_p50_ms"] = 1000 * median(lateness)
	out.extra["generator_late_p99_ms"] = 1000 * percentile(lateness, 99)
	out.extra["setup_samples_s"] = setups
	out.extra["failed_ratio"] = ratio(float64(out.failed), float64(out.attempted))
	out.extra["input"] = map[string]any{
		"rate_per_s": applyRate, "connections": applyConns, "batch_share": batchShare,
		"batch_points": batchPoints, "swaps_per_s": 1, "model_tuples": modelTuples,
		"models": f.ids, "tuple_pool": tuplePool, "batch_pool": batchPool,
		"fixed_seconds": slices, "rung_seconds": rungDur.Seconds(),
	}
	out.extra["yardstick"] = y.record()
	out.extra["unscaled"] = map[string]any{
		"setup_s": median(rawSetups), "op_p50_s": median(rawBatches),
		"op_tail_s": percentile(rawBatches, tailPercentile), "cpu_s_per_op": rawCPU / float64(requests),
	}
	return out, nil
}

// traceApply runs the fixed-rate mix twice, untraced and then with
// /metrics and /debug/vars scraped around it, and times the in-process
// scoring loop and registry writes.
func traceApply(ctx context.Context, cfg config) (*outcome, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	f, _, _, err := startApply(ctx, cfg, newYardstick(1), 1)
	if err != nil {
		return nil, err
	}
	defer f.d.stop()
	out := newOutcome()
	out.bypass = []string{"dataset.", "core.", "counts.", "search.", "engine.", "cluster.",
		"bitop.", "verify.", "mdl.", "report.", "serve."}
	warm(ctx, f, out)

	phaseDur := time.Duration(0.35 * cfg.seconds * float64(time.Second))
	untraced := f.run(ctx, applyRate, phaseDur)
	untraced.tally(out, "untraced")
	ut, ub, _ := untraced.latencies(applyRate)
	untracedAll := append(ut, ub...)

	before, err := scrape(f.d)
	if err != nil {
		return nil, err
	}
	traced := f.run(ctx, applyRate, phaseDur)
	after, err := scrape(f.d)
	if err != nil {
		return nil, err
	}
	traced.tally(out, "traced")
	tt, tb, lateness := traced.latencies(applyRate)
	tracedAll := append(tt, tb...)
	if len(untracedAll) == 0 || len(tracedAll) == 0 {
		return nil, fmt.Errorf("no successful apply request")
	}

	m := out.metrics
	delta := func(suffix string) float64 { return after.get(suffix) - before.get(suffix) }
	serverP50 := histQuantile(before, after, "apply_seconds", 0.5)
	clientP50 := median(tracedAll)
	var clientSum float64
	for _, x := range tracedAll {
		clientSum += x
	}
	reqs := float64(len(traced.tuples) + len(traced.batches))
	m["apply.server_p50_ms"] = 1000 * serverP50
	m["apply.http_share"] = 1 - serverP50/clientP50
	m["apply.shed"] = delta("apply_shed_total")
	m["apply.deadline_exceeded"] = delta("apply_deadline_exceeded_total")
	m["apply.errors"] = delta("apply_errors_total")
	m["apply.generator_late_ms"] = 1000 * percentile(lateness, 99)
	m["runtime.gc_cycles"] = (after.memstats.NumGC - before.memstats.NumGC) / reqs
	m["runtime.alloc_mb"] = (after.memstats.TotalAlloc - before.memstats.TotalAlloc) / (1 << 20) / reqs
	m["runtime.gc_pause_ms"] = (after.memstats.PauseTotalNs - before.memstats.PauseTotalNs) / 1e6 / reqs
	m["trace.coverage"] = delta("apply_seconds_sum") / clientSum
	m["trace.overhead_ratio"] = clientP50/median(untracedAll) - 1

	m["segment.apply_ns_per_point"] = applyNsPerPoint(f, 0.1*cfg.seconds)
	pub, act, err := registryTimes(cfg, f)
	if err != nil {
		return nil, err
	}
	m["registry.publish_ms"] = pub
	m["registry.activate_ms"] = act
	out.extra["client_p50_ms"] = 1000 * clientP50
	out.extra["untraced_client_p50_ms"] = 1000 * median(untracedAll)
	return out, nil
}

// applyNsPerPoint times Model.ApplyPoints over the batch pool for about
// secs seconds and returns the median nanoseconds per point.
func applyNsPerPoint(f *applyFixture, secs float64) float64 {
	m := f.models[f.ids[0]]
	res := make([]bool, batchPoints)
	var per []float64
	for end := time.Now().Add(time.Duration(secs * float64(time.Second))); time.Now().Before(end); {
		start := time.Now()
		for _, pts := range f.batches {
			m.ApplyPoints(pts, res)
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(batchPool*batchPoints))
	}
	return median(per)
}

// registryTimes publishes the models into a fresh registry and
// activates them in turn, returning the median milliseconds of each.
func registryTimes(cfg config, f *applyFixture) (publish, activate float64, err error) {
	reg, err := registry.Open(filepath.Join(cfg.work, "registry-trace"), registry.Options{})
	if err != nil {
		return 0, 0, err
	}
	var ids []string
	var pubs, acts []float64
	for i := 0; i < 10; i++ {
		start := time.Now()
		info, err := reg.Publish(f.models[f.ids[i%len(f.ids)]], registry.PublishMeta{Note: "perfbench"})
		if err != nil {
			return 0, 0, err
		}
		pubs = append(pubs, 1000*time.Since(start).Seconds())
		ids = append(ids, info.ID)
	}
	for i := 0; i < 20; i++ {
		start := time.Now()
		if _, err := reg.Activate(ids[i%len(ids)]); err != nil {
			return 0, 0, err
		}
		acts = append(acts, 1000*time.Since(start).Seconds())
	}
	return median(pubs), median(acts), nil
}

// scrapeResult is one reading of the daemon's /metrics and the Go
// runtime figures from /debug/vars.
type scrapeResult struct {
	prom     map[string]float64
	memstats struct {
		NumGC, TotalAlloc, PauseTotalNs float64
	}
}

// get returns the sample whose name, less any namespace prefix, is name.
func (s *scrapeResult) get(name string) float64 {
	for k, v := range s.prom {
		if k == name || strings.HasSuffix(k, "_"+name) {
			return v
		}
	}
	return 0
}

func scrape(d *daemon) (*scrapeResult, error) {
	s := &scrapeResult{prom: map[string]float64{}}
	resp, err := d.client.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		s.prom[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	var vars struct {
		Memstats json.RawMessage `json:"memstats"`
	}
	if err := d.call(http.MethodGet, "/debug/vars", nil, http.StatusOK, &vars); err != nil {
		return nil, err
	}
	if err := json.Unmarshal(vars.Memstats, &s.memstats); err != nil {
		return nil, fmt.Errorf("memstats: %w", err)
	}
	return s, nil
}

// histQuantile estimates quantile q of the observations a Prometheus
// histogram gained between two scrapes, interpolating linearly inside
// the bucket that holds it.
func histQuantile(before, after *scrapeResult, name string, q float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	prefix := name + `_bucket{le="`
	for k, v := range after.prom {
		i := strings.Index(k, prefix)
		if i < 0 || (i > 0 && k[i-1] != '_') {
			continue
		}
		leStr := strings.TrimSuffix(k[i+len(prefix):], `"}`)
		le, err := strconv.ParseFloat(leStr, 64)
		if err != nil {
			if leStr != "+Inf" {
				continue
			}
			le = math.Inf(1)
		}
		bs = append(bs, bucket{le, v - before.prom[k]})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].n == 0 {
		return math.NaN()
	}
	rank := q * bs[len(bs)-1].n
	lo, below := 0.0, 0.0
	for _, b := range bs {
		if b.n >= rank {
			if math.IsInf(b.le, 1) {
				return lo
			}
			return lo + (b.le-lo)*(rank-below)/(b.n-below)
		}
		lo, below = b.le, b.n
	}
	return lo
}
