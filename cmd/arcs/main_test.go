package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"arcs/internal/dataset"
	"arcs/internal/synth"
)

// TestMain lets the tests run the command in a child process: the test
// binary re-executed with ARCS_TEST_MAIN=1 is the arcs command.
func TestMain(m *testing.M) {
	if os.Getenv("ARCS_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runArcs runs the command with args and extra environment entries and
// returns what it printed on stdout.
func runArcs(t *testing.T, env []string, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(append(os.Environ(), "ARCS_TEST_MAIN=1"), env...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("arcs %v: %v\n%s", args, err, stderr.Bytes())
	}
	return stdout.String()
}

// synthCSV writes a Function 2 table with perturbation and outliers, as
// cmd/synthgen does.
func synthCSV(t *testing.T, n int) string {
	t.Helper()
	gen, err := synth.New(synth.Config{Function: 2, N: n, Seed: 3, Perturbation: 0.05, OutlierFraction: 0.1, FracA: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "f2.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := bufio.NewWriter(f)
	if err := dataset.WriteCSV(w, gen); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

var mineArgs = []string{"-x", "age", "-y", "salary", "-crit", "group", "-bins", "30"}

// TestStreamMatchesTable: -stream and the in-memory table load print
// the same rules, for one criterion value and for all of them.
func TestStreamMatchesTable(t *testing.T) {
	path := synthCSV(t, 20_000)
	for _, value := range [][]string{{"-value", "A"}, nil} {
		args := append(append([]string{"-in", path}, mineArgs...), value...)
		table := runArcs(t, nil, args...)
		stream := runArcs(t, nil, append(args, "-stream")...)
		if table == "" || table != stream {
			t.Errorf("%v: table mode printed\n%s\n-stream printed\n%s", value, table, stream)
		}
	}
}

// TestLoadSameAtAnyParallelism: the parallel load and a single-range
// load print the same rules, on a plain file and on a quoted CRLF one.
func TestLoadSameAtAnyParallelism(t *testing.T) {
	for _, path := range []string{synthCSV(t, 20_000), filepath.Join("..", "..", "testdata", "quoted-crlf.csv")} {
		args := append(append([]string{"-in", path}, mineArgs...), "-value", "A")
		one := runArcs(t, []string{"GOMAXPROCS=1"}, args...)
		four := runArcs(t, []string{"GOMAXPROCS=4"}, args...)
		if one == "" || one != four {
			t.Errorf("%s: GOMAXPROCS=1 printed\n%s\nGOMAXPROCS=4 printed\n%s", path, one, four)
		}
	}
}

// TestLoadSpan: -spans records the CSV load as a root span carrying
// its size, rows, workers, mode and quarantine count.
func TestLoadSpan(t *testing.T) {
	path := synthCSV(t, 5_000)
	trace := filepath.Join(t.TempDir(), "spans.jsonl")
	runArcs(t, []string{"GOMAXPROCS=2"}, append(append([]string{"-in", path, "-spans", trace}, mineArgs...), "-value", "A")...)
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		var ev struct {
			Name   string
			Parent uint64
			Attrs  map[string]string
		}
		if len(line) == 0 || json.Unmarshal(line, &ev) != nil || ev.Name != "load" {
			continue
		}
		if ev.Parent != 0 {
			t.Errorf("load span has parent %d, want a root span", ev.Parent)
		}
		want := map[string]string{"rows": "5000", "workers": "2", "mode": "parallel", "rows_quarantined": "0"}
		for k, v := range want {
			if ev.Attrs[k] != v {
				t.Errorf("load span %s = %q, want %q (attrs %v)", k, ev.Attrs[k], v, ev.Attrs)
			}
		}
		if ev.Attrs["bytes"] == "" || ev.Attrs["bytes"] == "0" {
			t.Errorf("load span bytes = %q", ev.Attrs["bytes"])
		}
		return
	}
	t.Fatalf("no load span in the trace:\n%s", data)
}
