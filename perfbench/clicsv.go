package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"arcs/internal/core"
	"arcs/internal/counts"
	"arcs/internal/dataset"
	"arcs/internal/obs"
	"arcs/internal/optimizer"
	"arcs/internal/quality"
	"arcs/internal/report"
	"arcs/internal/synth"
)

// The cli-csv input: synthgen's Function 2 table with 5% perturbation
// and 10% outliers, mined over (age, salary) for group A at the CLI
// defaults (50 bins, walk search, table mode).
const (
	csvRows      = 200_000
	perturbation = 0.05
	outliers     = 0.10
	fracA        = 0.40
	// setupRepeats is how often a daemon workload's run repeats its
	// set-up; setup_s is the median.
	setupRepeats = 9
	// inputsPerRun is how many inputs, each from its own seed derived
	// from the workload seed, a closed-loop run cycles through, so one
	// input's quirks (an extra rule, a longer search) move a run's
	// figures by a quarter rather than whole.
	inputsPerRun = 4
	// heldOutN is the size of the held-out table error_pct is scored on,
	// drawn with the workload seed shifted by heldOutSeedShift.
	heldOutN         = 50_000
	heldOutSeedShift = 7919
)

var arcsArgs = []string{"-x", "age", "-y", "salary", "-crit", "group", "-value", "A"}

// inputSeed is the generator seed of a run's k-th input.
func inputSeed(cfg config, k int) int64 { return cfg.seed*1000 + int64(k) }

// generateCSV writes input k of the run with synthgen.
func generateCSV(cfg config, k int) (string, time.Duration, error) {
	path := filepath.Join(cfg.work, fmt.Sprintf("data-%d.csv", k))
	cmd := command(filepath.Join(cfg.bin, "synthgen"),
		"-n", strconv.Itoa(csvRows), "-function", "2",
		"-perturb", fmt.Sprint(perturbation), "-outliers", fmt.Sprint(outliers),
		"-fraca", fmt.Sprint(fracA),
		"-seed", strconv.FormatInt(inputSeed(cfg, k), 10), "-out", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	start := time.Now()
	if err := runChild(cmd); err != nil {
		return "", 0, fmt.Errorf("synthgen: %v: %s", err, stderr.Bytes())
	}
	return path, time.Since(start), nil
}

// cliConfig is the core configuration cmd/arcs builds from its default
// flags and arcsArgs.
func cliConfig(observer *obs.Observer) core.Config {
	budget, _ := counts.ParseBudget("") // the empty default always parses
	return core.Config{
		XAttr: "age", YAttr: "salary", CritAttr: "group", CritValue: "A",
		NumBins:            50,
		PruneFraction:      0.01,
		FixedMinSupport:    0.0001,
		FixedMinConfidence: 0.39,
		Seed:               1,
		MemBudget:          budget,
		CountsBackend:      "auto",
		Walk:               optimizer.ThresholdWalk{},
		Smoothing:          core.SmoothBinary,
		BinStrategy:        core.BinEquiWidth,
		Search:             core.SearchWalk,
		Observer:           observer,
	}
}

// csvStages times the calls cmd/arcs makes, in its order.
type csvStages struct {
	infer, load, init, run, report time.Duration
	quarantined                    int64
}

func (s csvStages) total() time.Duration { return s.infer + s.load + s.init + s.run + s.report }

// mineCSV replays cmd/arcs in-process on path and returns what it
// prints. observer may be nil.
func mineCSV(ctx context.Context, path string, observer *obs.Observer) ([]byte, *core.Result, csvStages, error) {
	var st csvStages
	t := time.Now()
	lap := func(d *time.Duration) {
		now := time.Now()
		*d = now.Sub(t)
		t = now
	}
	schema, err := dataset.InferCSVSchema(path, 10_000)
	if err != nil {
		return nil, nil, st, err
	}
	lap(&st.infer)
	cs, err := dataset.OpenCSVStream(path, schema)
	if err != nil {
		return nil, nil, st, err
	}
	resilient := dataset.NewResilient(cs, dataset.Retry{Max: 2, Seed: 1}, dataset.Quarantine{})
	if observer != nil {
		resilient.Observe(observer.Registry())
	}
	tb, err := dataset.Materialize(resilient)
	if cerr := cs.Close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, st, err
	}
	st.quarantined = resilient.Stats().Total()
	lap(&st.load)
	sys, err := core.NewContext(ctx, tb, cliConfig(observer))
	if err != nil {
		return nil, nil, st, err
	}
	lap(&st.init)
	res, err := sys.RunContext(ctx)
	if err != nil {
		return nil, nil, st, err
	}
	lap(&st.run)
	var buf bytes.Buffer
	if err := report.WriteResult(&buf, res, report.Text); err != nil {
		return nil, nil, st, err
	}
	lap(&st.report)
	return buf.Bytes(), res, st, nil
}

// arcsRun is one measured arcs process.
type arcsRun struct{ wall, cpu, rss float64 }

// runArcs runs the arcs CLI on path and checks that it prints want.
func runArcs(cfg config, path string, want []byte) (arcsRun, error) {
	cmd := command(filepath.Join(cfg.bin, "arcs"), append([]string{"-in", path}, arcsArgs...)...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	cmd.Env = append(os.Environ(), "TMPDIR="+cfg.work)
	start := time.Now()
	err := runChild(cmd)
	wall := time.Since(start)
	if err != nil {
		return arcsRun{}, fmt.Errorf("arcs: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		return arcsRun{}, errWrong{fmt.Sprintf("arcs printed %q, in-process run printed %q", stdout.Bytes(), want)}
	}
	ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	return arcsRun{
		wall: wall.Seconds(),
		cpu:  tvSeconds(ru.Utime) + tvSeconds(ru.Stime),
		rss:  float64(ru.Maxrss) / 1024,
	}, nil
}

// heldOutError scores a group-A segmentation on a synthetic table drawn
// with another seed than the one it was mined from.
func heldOutError(res *core.Result, seed int64) (float64, error) {
	gen, err := synth.New(synth.Config{
		Function: 2, N: heldOutN, Seed: seed + heldOutSeedShift,
		Perturbation: perturbation, OutlierFraction: outliers, FracA: fracA,
	})
	if err != nil {
		return 0, err
	}
	test, err := dataset.Materialize(gen)
	if err != nil {
		return 0, err
	}
	rep, err := quality.Evaluate(res, test, quality.Options{
		XAttr: "age", YAttr: "salary", CritAttr: "group", CritValue: "A",
	})
	if err != nil {
		return 0, err
	}
	return rep.ErrorPct, nil
}

// csvInput is one generated CSV with the in-process reference run's
// printed output and held-out error.
type csvInput struct {
	path   string
	want   []byte
	rules  int
	errPct float64
}

func measureCLICSV(ctx context.Context, cfg config) (*outcome, error) {
	// arcs parses and mines on one thread; its collector is the rest.
	y := newYardstick(1)
	var inputs []csvInput
	var setups, rawSetups []float64
	var bytesIn int64
	for k := 0; k < inputsPerRun; k++ {
		before := y.measure()
		path, d, err := generateCSV(cfg, k)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds()*wallFactor(before, y.measure()))
		rawSetups = append(rawSetups, d.Seconds())
		fi, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		bytesIn += fi.Size()
		want, ref, _, err := mineCSV(ctx, path, nil)
		if err != nil {
			return nil, fmt.Errorf("in-process reference run: %w", err)
		}
		errPct, err := heldOutError(ref, inputSeed(cfg, k))
		if err != nil {
			return nil, err
		}
		inputs = append(inputs, csvInput{path: path, want: want, rules: len(ref.Rules), errPct: errPct})
		// One unmeasured run loads the binary and the file into the
		// page cache, as a user's second run would find them.
		if _, err := runArcs(cfg, path, want); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}

	out := newOutcome()
	var walls, cpus, rsss, rawWalls, rawCPUs []float64
	before := y.measure()
	for end := measureUntil(cfg); time.Now().Before(end) && ctx.Err() == nil; {
		in := inputs[out.attempted%len(inputs)]
		out.attempted++
		st, err := runArcs(cfg, in.path, in.want)
		after := y.measure()
		wf, cf := wallFactor(before, after), cpuFactor(before, after)
		before = after
		if err != nil {
			out.fail(isWrong(err), "op %d: %v", out.attempted, err)
			continue
		}
		walls = append(walls, st.wall*wf)
		cpus = append(cpus, st.cpu*cf)
		rsss = append(rsss, st.rss)
		rawWalls = append(rawWalls, st.wall)
		rawCPUs = append(rawCPUs, st.cpu)
	}
	if len(walls) == 0 {
		return nil, fmt.Errorf("every arcs run failed")
	}
	opTail, ok := tail(walls)
	if !ok {
		return nil, fmt.Errorf("only %d operations; a tail needs more than %d", len(walls), minBeyond)
	}
	p50 := median(walls)
	var errSum, rules float64
	for _, in := range inputs {
		errSum += in.errPct
		rules += float64(in.rules)
	}
	m := out.metrics
	m["setup_s"] = median(setups)
	m["op_p50_s"] = p50
	m["op_tail_s"] = opTail.Value
	m["tuples_per_s"] = csvRows / p50
	m["cpu_s_per_op"] = mean(cpus)
	m["peak_rss_mb"] = median(rsss) // as for daemon-jobs
	m["error_pct"] = errSum / float64(len(inputs))
	m["rules"] = rules / float64(len(inputs))
	out.extra["input"] = map[string]any{
		"files": len(inputs), "rows_per_file": csvRows, "bytes_total": bytesIn, "columns": 10,
		"function": 2, "perturbation": perturbation, "outliers": outliers, "bins": 50,
		"held_out_rows": heldOutN,
	}
	out.extra["op_tail"] = opTail
	out.extra["rss_max_mb"] = percentile(rsss, 100)
	out.extra["setup_samples_s"] = setups
	out.extra["failed_ratio"] = ratio(float64(out.failed), float64(out.attempted))
	out.extra["yardstick"] = y.record()
	out.extra["unscaled"] = map[string]any{
		"setup_s": median(rawSetups), "op_p50_s": median(rawWalls), "op_p90_s": percentile(rawWalls, 90),
		"cpu_s_per_op": mean(rawCPUs),
	}
	return out, nil
}

// traceCLICSV replays the cmd/arcs call sequence in-process, timing
// each call, alternating untraced and traced replays with one arcs
// process per round. trace.coverage is the timed calls of a traced
// replay over the arcs process's wall time, so it shows how much of
// what a CLI user waits for the layers account for.
func traceCLICSV(ctx context.Context, cfg config) (*outcome, error) {
	path, _, err := generateCSV(cfg, 0)
	if err != nil {
		return nil, err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	want, _, _, err := mineCSV(ctx, path, nil)
	if err != nil {
		return nil, err
	}
	mb := float64(fi.Size()) / (1 << 20)

	out := newOutcome()
	out.bypass = []string{"serve.", "apply.", "segment.", "registry."}
	layers := layerSamples{}
	var traced, untraced, timed, cli []float64
	for end := measureUntil(cfg); time.Now().Before(end) && ctx.Err() == nil; {
		out.attempted++
		run, err := runArcs(cfg, path, want)
		if err != nil {
			out.fail(isWrong(err), "arcs: %v", err)
			continue
		}
		cli = append(cli, run.wall)

		out.attempted++
		start := time.Now()
		got, _, _, err := mineCSV(ctx, path, nil)
		untraced = append(untraced, time.Since(start).Seconds())
		if err != nil || !bytes.Equal(got, want) {
			out.fail(err == nil, "untraced op: output differs or failed: %v", err)
			continue
		}

		out.attempted++
		sink := &obs.MemSink{}
		observer := obs.New(sink)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start = time.Now()
		got, res, st, err := mineCSV(ctx, path, observer)
		wall := time.Since(start)
		runtime.ReadMemStats(&after)
		if err != nil || !bytes.Equal(got, want) {
			out.fail(err == nil, "traced op: output differs or failed: %v", err)
			continue
		}
		traced = append(traced, wall.Seconds())
		v := coreLayers(sink.Events(), observer.Registry().Snapshot(), []*core.Result{res})
		for k, x := range gcDelta(&before, &after) {
			v[k] = x
		}
		v["dataset.infer_s"] = st.infer.Seconds()
		v["dataset.load_s"] = st.load.Seconds()
		v["dataset.mb_per_s"] = mb / (st.infer + st.load).Seconds()
		v["dataset.rows_quarantined"] = float64(st.quarantined)
		v["report.write_s"] = st.report.Seconds()
		timed = append(timed, st.total().Seconds())
		layers.add(v)
	}
	if len(traced) == 0 || len(untraced) == 0 {
		return nil, fmt.Errorf("no successful traced operation")
	}
	layers.medians(out.metrics)
	out.metrics["trace.coverage"] = median(timed) / median(cli)
	out.extra["cli_op_p50_s"] = median(cli)
	out.metrics["trace.overhead_ratio"] = median(traced)/median(untraced) - 1
	out.extra["traced_op_p50_s"] = median(traced)
	out.extra["untraced_op_p50_s"] = median(untraced)
	out.extra["input"] = map[string]any{"rows": csvRows, "bytes": fi.Size()}
	return out, nil
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// errWrong marks an operation that completed with a wrong answer, as
// opposed to one that failed outright.
type errWrong struct{ msg string }

func (e errWrong) Error() string { return "wrong output: " + e.msg }

func isWrong(err error) bool {
	var w errWrong
	return errors.As(err, &w)
}
