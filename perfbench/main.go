// Command perfbench is the repository benchmark. It drives one workload
// against the shipped binaries (arcs, arcsd, synthgen) built from the
// same checkout, checks every operation's output, stamps the machine
// and prints the metrics declared in BENCHMARK.json.
//
// Run it through the launcher from the repository root, which builds
// the binaries first:
//
//	bash perfbench/run.sh --workload cli-csv --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it prints every end-to-end metric; with --trace 1 it
// replays the workload's operation in-process through the same public
// calls, times each layer from outside, and prints every per-layer
// metric. The last line of standard output is one JSON object with the
// keys correct, attempted, failed and metrics; the line before it is the
// full record (environment stamp, input sizes and supporting figures).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// benchSpec is the part of BENCHMARK.json this program reads back: the
// declared metric names and units, so a run that forgets a metric or
// reports an undeclared one fails instead of printing a partial result.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	bin      string // directory holding arcs, arcsd and synthgen
	work     string // directory for this run's generated inputs
}

// outcome is what a workload hands back: the counts of measured
// operations, whether every checked output was right, the metric
// values by name and supporting figures for the record.
type outcome struct {
	attempted, failed int
	wrong             int
	metrics           map[string]float64
	extra             map[string]any
	// bypass names the layers (metric-name prefixes such as "dataset.")
	// the workload's operation never enters; their per-layer metrics
	// read 0.
	bypass []string
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, extra: map[string]any{}}
}

// fail records one failed operation; a wrong answer also marks the
// run incorrect.
func (o *outcome) fail(wrong bool, format string, args ...any) {
	o.failed++
	if wrong {
		o.wrong++
	}
	if o.failed <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	}
}

// wrongAnswer marks the run incorrect for a wrong answer outside the
// measured operations.
func (o *outcome) wrongAnswer(format string, args ...any) {
	o.wrong++
	if o.wrong <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	}
}

var workloads = map[string]struct {
	measure func(ctx context.Context, cfg config) (*outcome, error)
	trace   func(ctx context.Context, cfg config) (*outcome, error)
}{
	"cli-csv":     {measureCLICSV, traceCLICSV},
	"daemon-jobs": {measureDaemonJobs, traceDaemonJobs},
	"apply":       {measureApply, traceApply},
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload name from BENCHMARK.json")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced in-process replay printing per-layer metrics")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if flag.NArg() != 0 || cfg.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		flag.Usage()
		return errors.New("bad arguments")
	}

	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	wl, ok := workloads[cfg.workload]
	if !ok || !spec.hasWorkload(cfg.workload) {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	// run.sh builds the binaries here; generated inputs go beside them.
	cfg.bin, cfg.work = filepath.Join(".bench_build", "bin"), filepath.Join(".bench_build", "work")
	for _, name := range []string{"arcs", "arcsd", "synthgen"} {
		if _, err := os.Stat(filepath.Join(cfg.bin, name)); err != nil {
			return fmt.Errorf("missing binary (build it with perfbench/run.sh): %w", err)
		}
	}
	absBin, err := filepath.Abs(cfg.bin)
	if err != nil {
		return err
	}
	cfg.bin = absBin
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(cfg.work, cfg.workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	cfg.work = work

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	defer stopAllChildren()

	measure, declared := wl.measure, spec.EndToEnd
	if cfg.trace {
		measure, declared = wl.trace, spec.PerLayer
	}
	start, steal0 := time.Now(), stealSeconds()
	out, err := measure(ctx, cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if out.attempted < 1 {
		return fmt.Errorf("%s: no operation completed in %.0f s", cfg.workload, cfg.seconds)
	}
	metrics, err := checkMetrics(out, declared)
	if err != nil {
		return fmt.Errorf("%s: %w", cfg.workload, err)
	}

	env := stampEnvironment()
	// Time the hypervisor took from the vCPUs during the run: a slow run
	// with a large figure here was slowed by the machine, not the code.
	env["steal_s_during_run"] = stealSeconds() - steal0
	record := map[string]any{
		"workload":    cfg.workload,
		"trace":       cfg.trace,
		"seed":        cfg.seed,
		"seconds":     cfg.seconds,
		"elapsed_s":   time.Since(start).Seconds(),
		"environment": env,
		"attempted":   out.attempted,
		"failed":      out.failed,
		"wrong":       out.wrong,
		"metrics":     metrics,
		"detail":      out.extra,
		"bypassed":    out.bypass,
	}
	if err := printJSON(map[string]any{"record": record}); err != nil {
		return err
	}
	return printJSON(map[string]any{
		"correct":   out.wrong == 0,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   metrics,
	})
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading benchmark declaration: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &s, nil
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// checkMetrics pairs every declared metric with its measured value and
// rejects a run that misses one or reports one not declared. Metrics of
// a bypassed layer read 0.
func checkMetrics(o *outcome, declared []metricSpec) (map[string]metricValue, error) {
	got := o.metrics
	out := make(map[string]metricValue, len(declared))
	for _, m := range declared {
		v, ok := got[m.Name]
		if !ok && !o.bypasses(m.Name) {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		out[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	var extra []string
	for name := range got {
		if _, ok := out[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("metrics not declared in BENCHMARK.json: %v", extra)
	}
	return out, nil
}

func (o *outcome) bypasses(metric string) bool {
	for _, p := range o.bypass {
		if strings.HasPrefix(metric, p) {
			return true
		}
	}
	return false
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", b)
	return err
}

// measureUntil returns the instant a closed-loop measurement that
// starts now must stop.
func measureUntil(cfg config) time.Time {
	return time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
}
