package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"runtime"
	"sort"
	"time"

	"arcs/internal/core"
	"arcs/internal/counts"
	"arcs/internal/obs"
	"arcs/internal/optimizer"
	"arcs/internal/report"
	"arcs/internal/synth"
)

// The daemon-jobs spec: Function 2 generated in the daemon, 100 bins
// (10,000 cells, so the probe pool fans out), every criterion value
// segmented.
const (
	jobTuples = 200_000
	jobBins   = 100
	// pollEvery is the pause between a waiting client's status
	// requests; it bounds how late a finished job is noticed.
	pollEvery = time.Millisecond
)

func jobSynth(seed int64, n int) map[string]any {
	return map[string]any{
		"function": 2, "n": n, "seed": seed,
		"perturbation": perturbation, "outliers": outliers, "frac_a": fracA,
	}
}

func jobSpec(seed int64) map[string]any {
	return map[string]any{
		"synth": jobSynth(seed, jobTuples),
		"x":     "age", "y": "salary", "crit": "group", "bins": jobBins,
	}
}

// jobCoreConfig is the core configuration arcsd derives from jobSpec
// with its default flags.
func jobCoreConfig(observer *obs.Observer) core.Config {
	budget, _ := counts.ParseBudget("") // the empty default always parses
	return core.Config{
		XAttr: "age", YAttr: "salary", CritAttr: "group",
		NumBins:       jobBins,
		MemBudget:     budget,
		CountsBackend: "auto",
		Walk:          optimizer.ThresholdWalk{},
		Search:        core.SearchWalk,
		Smoothing:     core.SmoothBinary,
		Observer:      observer,
	}
}

// segmentAllInProcess mines the daemon-jobs spec in this process with
// the same public calls the daemon makes, returning the init and
// segmentation times.
func segmentAllInProcess(ctx context.Context, seed int64, observer *obs.Observer) (map[string]*core.Result, time.Duration, time.Duration, error) {
	gen, err := synth.New(synth.Config{
		Function: 2, N: jobTuples, Seed: seed,
		Perturbation: perturbation, OutlierFraction: outliers, FracA: fracA,
	})
	if err != nil {
		return nil, 0, 0, err
	}
	start := time.Now()
	sys, err := core.NewContext(ctx, gen, jobCoreConfig(observer))
	if err != nil {
		return nil, 0, 0, err
	}
	initDur := time.Since(start)
	start = time.Now()
	results, err := sys.SegmentAllContext(ctx)
	return results, initDur, time.Since(start), err
}

// resultDocs renders results the way GET /runs/{id} does, decoded back
// into plain JSON values for comparison.
func resultDocs(results map[string]*core.Result) (map[string]any, error) {
	docs := make(map[string]any, len(results))
	for label, res := range results {
		b, err := json.Marshal(report.JSONResult(res))
		if err != nil {
			return nil, err
		}
		var doc any
		if err := json.Unmarshal(b, &doc); err != nil {
			return nil, err
		}
		docs[label] = doc
	}
	return docs, nil
}

// jobStatus is the part of GET /runs/{id} the benchmark reads.
type jobStatus struct {
	ID          string         `json:"id"`
	State       string         `json:"state"`
	Error       string         `json:"error"`
	SubmittedAt time.Time      `json:"submitted_at"`
	StartedAt   *time.Time     `json:"started_at"`
	FinishedAt  *time.Time     `json:"finished_at"`
	Results     map[string]any `json:"results"`
	Quality     map[string]*struct {
		Rules    int     `json:"rules"`
		ErrorPct float64 `json:"error_pct"`
	} `json:"quality"`
}

func (s *jobStatus) terminal() bool { return s.State != "pending" && s.State != "running" }

// runJob submits spec and polls until the job ends, returning the
// client-side wall time from submission to seeing it finished.
func runJob(ctx context.Context, d *daemon, spec map[string]any) (time.Duration, *jobStatus, error) {
	start := time.Now()
	var sub struct {
		ID string `json:"id"`
	}
	if err := d.call(http.MethodPost, "/runs", spec, http.StatusAccepted, &sub); err != nil {
		return 0, nil, err
	}
	for {
		var st jobStatus
		if err := d.call(http.MethodGet, "/runs/"+sub.ID, nil, http.StatusOK, &st); err != nil {
			return 0, nil, err
		}
		if st.terminal() {
			return time.Since(start), &st, nil
		}
		if err := ctx.Err(); err != nil {
			return 0, nil, err
		}
		sleepPrecise(pollEvery)
	}
}

// checkJob compares a finished job with the in-process reference.
func checkJob(st *jobStatus, want map[string]any) error {
	if st.State != "done" {
		return fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	if !reflect.DeepEqual(st.Results, want) {
		return errWrong{fmt.Sprintf("job %s results differ from the in-process SegmentAll", st.ID)}
	}
	if st.Quality == nil || st.Quality[synth.GroupA] == nil {
		return errWrong{fmt.Sprintf("job %s has no quality block for group A", st.ID)}
	}
	return nil
}

// bootDaemons starts arcsd setupRepeats times, keeps the last one
// running and returns the boot-to-ready times in seconds, scaled by the
// yardstick and as measured.
func bootDaemons(ctx context.Context, cfg config, y *yardstick, conns int, args ...string) (*daemon, []float64, []float64, error) {
	var boots, raw []float64
	for i := 0; ; i++ {
		before := y.measure()
		d, boot, err := startDaemon(ctx, cfg, fmt.Sprintf("arcsd-%d.log", i), conns, args...)
		if err != nil {
			return nil, nil, nil, err
		}
		boots = append(boots, boot.Seconds()*wallFactor(before, y.measure()))
		raw = append(raw, boot.Seconds())
		if i == setupRepeats-1 {
			return d, boots, raw, nil
		}
		d.stop()
	}
}

// jobInput is one daemon-jobs spec with its in-process reference.
type jobInput struct {
	spec  map[string]any
	want  map[string]any
	rules int
}

func measureDaemonJobs(ctx context.Context, cfg config) (*outcome, error) {
	// A job's search fans its probes out over both vCPUs.
	y := newYardstick(2)
	d, boots, rawBoots, err := bootDaemons(ctx, cfg, y, 1)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	var inputs []jobInput
	for k := 0; k < inputsPerRun; k++ {
		seed := inputSeed(cfg, k)
		ref, _, _, err := segmentAllInProcess(ctx, seed, nil)
		if err != nil {
			return nil, fmt.Errorf("in-process reference: %w", err)
		}
		want, err := resultDocs(ref)
		if err != nil {
			return nil, err
		}
		inputs = append(inputs, jobInput{spec: jobSpec(seed), want: want, rules: len(ref[synth.GroupA].Rules)})
	}
	// One unmeasured job warms the daemon's heap and code paths.
	if _, st, err := runJob(ctx, d, inputs[0].spec); err != nil {
		return nil, fmt.Errorf("warm-up job: %w", err)
	} else if err := checkJob(st, inputs[0].want); err != nil {
		return nil, fmt.Errorf("warm-up job: %w", err)
	}

	out := newOutcome()
	cpu0, err := procCPU(d.pid())
	if err != nil {
		return nil, err
	}
	var walls, peaks, rawWalls []float64
	errPcts := make([][]float64, len(inputs))
	loopFrom := len(y.readings)
	before := y.measure()
	for end := measureUntil(cfg); time.Now().Before(end) && ctx.Err() == nil; {
		k := out.attempted % len(inputs)
		out.attempted++
		if err := resetHWM(d.pid()); err != nil {
			return nil, err
		}
		wall, st, err := runJob(ctx, d, inputs[k].spec)
		after := y.measure()
		f := wallFactor(before, after)
		before = after
		if err == nil {
			err = checkJob(st, inputs[k].want)
		}
		if err != nil {
			out.fail(isWrong(err), "job %d: %v", out.attempted, err)
			continue
		}
		walls = append(walls, wall.Seconds()*f)
		rawWalls = append(rawWalls, wall.Seconds())
		peak, err := procHWM(d.pid())
		if err != nil {
			return nil, err
		}
		peaks = append(peaks, peak)
		errPcts[k] = append(errPcts[k], st.Quality[synth.GroupA].ErrorPct)
	}
	cpu1, err := procCPU(d.pid())
	if err != nil {
		return nil, err
	}
	if len(walls) == 0 {
		return nil, fmt.Errorf("every job failed")
	}
	opTail, ok := tail(walls)
	if !ok {
		return nil, fmt.Errorf("only %d jobs; a tail needs more than %d", len(walls), minBeyond)
	}
	var errSum, rules float64
	for k, in := range inputs {
		if len(errPcts[k]) == 0 {
			return nil, fmt.Errorf("no job on input %d succeeded", k)
		}
		errSum += median(errPcts[k])
		rules += float64(in.rules)
	}
	p50 := median(walls)
	m := out.metrics
	m["setup_s"] = median(boots)
	m["op_p50_s"] = p50
	m["op_tail_s"] = opTail.Value
	m["tuples_per_s"] = jobTuples / p50
	m["cpu_s_per_op"] = (cpu1 - cpu0) / float64(out.attempted) * y.runCPUFactor(loopFrom)
	// The daemon's high-water mark over a whole run is set by its one
	// job whose collection started latest and jumped by half between
	// runs; the median job's peak is the memory a job needs.
	m["peak_rss_mb"] = median(peaks)
	m["error_pct"] = errSum / float64(len(inputs))
	m["rules"] = rules / float64(len(inputs))
	out.extra["input"] = map[string]any{
		"specs": len(inputs), "tuples": jobTuples, "function": 2, "bins": jobBins,
		"perturbation": perturbation, "outliers": outliers,
	}
	out.extra["op_tail"] = opTail
	out.extra["rss_max_mb"] = percentile(peaks, 100)
	out.extra["setup_samples_s"] = boots
	out.extra["failed_ratio"] = ratio(float64(out.failed), float64(out.attempted))
	out.extra["yardstick"] = y.record()
	out.extra["unscaled"] = map[string]any{
		"setup_s": median(rawBoots), "op_p50_s": median(rawWalls), "op_p90_s": percentile(rawWalls, 90),
		"cpu_s_per_op": (cpu1 - cpu0) / float64(out.attempted),
	}
	return out, nil
}

// traceDaemonJobs replays the job in-process (core.NewContext then
// SegmentAllContext), traced and untraced in turn, and runs one daemon
// job per round for the serve-layer figures. trace.coverage is the
// timed calls of a traced replay over the daemon job's wall time.
func traceDaemonJobs(ctx context.Context, cfg config) (*outcome, error) {
	d, _, err := startDaemon(ctx, cfg, "arcsd.log", 1)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	seed := inputSeed(cfg, 0)
	ref, _, _, err := segmentAllInProcess(ctx, seed, nil)
	if err != nil {
		return nil, err
	}
	want, err := resultDocs(ref)
	if err != nil {
		return nil, err
	}
	spec := jobSpec(seed)

	out := newOutcome()
	out.bypass = []string{"dataset.", "report.", "apply.", "segment.", "registry."}
	layers := layerSamples{}
	var traced, untraced, timed, jobs []float64
	for end := measureUntil(cfg); time.Now().Before(end) && ctx.Err() == nil; {
		out.attempted++
		start := time.Now()
		res, _, _, err := segmentAllInProcess(ctx, seed, nil)
		untraced = append(untraced, time.Since(start).Seconds())
		if err == nil {
			err = sameResults(res, want)
		}
		if err != nil {
			out.fail(isWrong(err), "untraced op: %v", err)
			continue
		}

		out.attempted++
		sink := &obs.MemSink{}
		observer := obs.New(sink)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start = time.Now()
		res, initDur, segDur, err := segmentAllInProcess(ctx, seed, observer)
		wall := time.Since(start)
		runtime.ReadMemStats(&after)
		if err == nil {
			err = sameResults(res, want)
		}
		if err != nil {
			out.fail(isWrong(err), "traced op: %v", err)
			continue
		}
		traced = append(traced, wall.Seconds())
		all := make([]*core.Result, 0, len(res))
		for _, r := range res {
			all = append(all, r)
		}
		v := coreLayers(sink.Events(), observer.Registry().Snapshot(), all)
		for k, x := range gcDelta(&before, &after) {
			v[k] = x
		}

		out.attempted++
		jobWall, queue, overhead, err := daemonJobLayers(ctx, d, spec, want)
		if err != nil {
			out.fail(isWrong(err), "daemon job: %v", err)
			continue
		}
		v["serve.queue_s"] = queue
		v["serve.job_overhead_s"] = overhead
		timed = append(timed, (initDur + segDur).Seconds())
		jobs = append(jobs, jobWall)
		layers.add(v)
	}
	if len(traced) == 0 || len(untraced) == 0 {
		return nil, fmt.Errorf("no successful traced operation")
	}
	layers.medians(out.metrics)
	out.metrics["trace.coverage"] = median(timed) / median(jobs)
	out.extra["job_op_p50_s"] = median(jobs)
	out.metrics["trace.overhead_ratio"] = median(traced)/median(untraced) - 1
	out.extra["traced_op_p50_s"] = median(traced)
	out.extra["untraced_op_p50_s"] = median(untraced)
	return out, nil
}

func sameResults(res map[string]*core.Result, want map[string]any) error {
	got, err := resultDocs(res)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(got, want) {
		return errWrong{"in-process SegmentAll is not deterministic"}
	}
	return nil
}

// daemonJobLayers runs one job and splits its daemon-side time: the
// wait from submission to start, and the job's wall time not covered by
// its own init and run spans (read back from the span replay).
func daemonJobLayers(ctx context.Context, d *daemon, spec map[string]any, want map[string]any) (wall, queue, overhead float64, err error) {
	w, st, err := runJob(ctx, d, spec)
	if err != nil {
		return 0, 0, 0, err
	}
	if err := checkJob(st, want); err != nil {
		return 0, 0, 0, err
	}
	if st.StartedAt == nil || st.FinishedAt == nil {
		return 0, 0, 0, fmt.Errorf("job %s has no start or finish time", st.ID)
	}
	covered, err := rootSpanCover(d, st.ID)
	if err != nil {
		return 0, 0, 0, err
	}
	queue = st.StartedAt.Sub(st.SubmittedAt).Seconds()
	overhead = st.FinishedAt.Sub(*st.StartedAt).Seconds() - covered.Seconds()
	return w.Seconds(), queue, overhead, nil
}

// rootSpanCover returns the length of the union of a finished job's
// root spans (init, and one run per criterion value, which overlap).
func rootSpanCover(d *daemon, id string) (time.Duration, error) {
	resp, err := d.client.Get(d.base + "/runs/" + id + "/spans")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("span replay of %s: status %d", id, resp.StatusCode)
	}
	type interval struct{ lo, hi int64 }
	var spans []interval
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		var ev struct {
			Type   string `json:"type"`
			Parent uint64 `json:"parent"`
			TS     int64  `json:"ts_us"`
			Dur    int64  `json:"dur_us"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return 0, fmt.Errorf("span replay of %s: %w", id, err)
		}
		if ev.Type == obs.EventSpan && ev.Parent == 0 {
			spans = append(spans, interval{ev.TS, ev.TS + ev.Dur})
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
	var total, hi int64
	for _, s := range spans {
		if s.lo > hi {
			hi = s.lo
		}
		if s.hi > hi {
			total += s.hi - hi
			hi = s.hi
		}
	}
	return time.Duration(total) * time.Microsecond, nil
}
