package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
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
	stdout, _ := runArcsLogged(t, env, args...)
	return stdout
}

// runArcsLogged is runArcs that also returns what the command logged on
// stderr.
func runArcsLogged(t *testing.T, env []string, args ...string) (string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(append(os.Environ(), "ARCS_TEST_MAIN=1"), env...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("arcs %v: %v\n%s", args, err, stderr.Bytes())
	}
	return stdout.String(), stderr.String()
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
	// The infer span ends, and is written, before its load parent.
	var inferParent uint64
	for _, line := range bytes.Split(data, []byte("\n")) {
		var ev struct {
			Name   string
			ID     uint64
			Parent uint64
			Attrs  map[string]string
		}
		if len(line) == 0 || json.Unmarshal(line, &ev) != nil {
			continue
		}
		if ev.Name == "infer" {
			inferParent = ev.Parent
		}
		if ev.Name != "load" {
			continue
		}
		if inferParent == 0 || inferParent != ev.ID {
			t.Errorf("infer span parent %d, want the load span %d", inferParent, ev.ID)
		}
		if ev.Parent != 0 {
			t.Errorf("load span has parent %d, want a root span", ev.Parent)
		}
		want := map[string]string{"rows": "5000", "workers": "2", "mode": "parallel", "rows_quarantined": "0", "columns": "3/10"}
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

// TestProjectionMatchesFullLoad: table mode converts only age, salary
// and group; -stream converts every column. Every output format, the
// all-values mode and a saved model come out identical.
func TestProjectionMatchesFullLoad(t *testing.T) {
	path := synthCSV(t, 20_000)
	dir := t.TempDir()
	for _, format := range []string{"text", "json", "markdown"} {
		for _, value := range [][]string{{"-value", "A"}, nil} {
			args := append(append([]string{"-in", path, "-format", format}, mineArgs...), value...)
			var table, stream string
			if value != nil {
				args = append(args, "-save")
				table = runArcs(t, nil, append(args, filepath.Join(dir, "table.json"))...)
				stream = runArcs(t, nil, append(args, filepath.Join(dir, "stream.json"), "-stream")...)
			} else {
				table = runArcs(t, nil, args...)
				stream = runArcs(t, nil, append(args, "-stream")...)
			}
			if table == "" || table != stream {
				t.Errorf("-format %s %v: table mode printed\n%s\n-stream printed\n%s", format, value, table, stream)
			}
			if value == nil {
				continue
			}
			a, errA := os.ReadFile(filepath.Join(dir, "table.json"))
			b, errB := os.ReadFile(filepath.Join(dir, "stream.json"))
			if errA != nil || errB != nil || len(a) == 0 || !bytes.Equal(a, b) {
				t.Errorf("-format %s: saved models differ (%v, %v):\n%s\n%s", format, errA, errB, a, b)
			}
		}
	}
}

// dirtyUnusedColumns rewrites a synthgen CSV with cells in columns a
// run over (age, salary, group) never reads: a parse failure, an
// out-of-range cell, a non-finite cell, a non-finite cell before a
// parse failure in one row and a short row, each of which quarantines
// its row, and two cells strconv accepts though they are not plain
// decimals, which do not. They lie past the 10,000-row prefix schema
// inference reads, so the columns stay quantitative.
func dirtyUnusedColumns(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	header := strings.Split(lines[0], ",")
	dirty := map[int]map[string]string{
		10_500: {"commission": "abc"},
		11_000: {"loan": "1e400"},
		12_000: {"hvalue": "NaN"},
		13_000: {"hyears": "-Inf", "loan": "oops"},
		14_000: {"zipcode": "0x1p-2"},
		15_000: {"car": "1_000"},
	}
	for i, cells := range dirty {
		f := strings.Split(lines[i], ",")
		for name, v := range cells {
			f[slices.Index(header, name)] = v
		}
		lines[i] = strings.Join(f, ",")
	}
	lines[16_000] = strings.Join(strings.Split(lines[16_000], ",")[:5], ",")
	out := filepath.Join(t.TempDir(), "dirty.csv")
	if err := os.WriteFile(out, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	return out
}

// quarantineLog reads a JSON log: the record of each quarantined row,
// without its timestamp, and the final account of quarantined rows by
// reason.
func quarantineLog(t *testing.T, stderr string) (rows []string, account map[string]float64) {
	t.Helper()
	for _, line := range strings.Split(stderr, "\n") {
		var rec map[string]any
		if json.Unmarshal([]byte(line), &rec) != nil {
			continue
		}
		switch rec["msg"] {
		case "quarantined row":
			delete(rec, "time")
			b, _ := json.Marshal(rec)
			rows = append(rows, string(b))
		case "input degradation":
			account = map[string]float64{}
			for reason, n := range rec["by_reason"].(map[string]any) {
				account[reason] = n.(float64)
			}
		}
	}
	return rows, account
}

// TestProjectedLoadQuarantinesUnusedColumns: bad cells in columns the
// run does not read quarantine the same rows, with the same reasons,
// row numbers and errors, in table mode as in -stream mode. The stream
// is read once per construction pass and quarantines the rows again on
// each, so its records repeat the table's per pass and its account is
// the table's times the passes.
func TestProjectedLoadQuarantinesUnusedColumns(t *testing.T) {
	path := dirtyUnusedColumns(t, synthCSV(t, 20_000))
	args := append(append([]string{"-in", path, "-max-bad-rows", "-1", "-v", "-log-format", "json"}, mineArgs...), "-value", "A")
	tableOut, tableLog := runArcsLogged(t, nil, args...)
	streamOut, streamLog := runArcsLogged(t, nil, append(args, "-stream")...)
	table, tableAcc := quarantineLog(t, tableLog)
	stream, streamAcc := quarantineLog(t, streamLog)
	want := map[string]float64{"parse": 3, "non-finite": 1, "field-count": 1}
	if len(table) != 5 || !maps.Equal(tableAcc, want) {
		t.Fatalf("table mode quarantined %v, want %v:\n%s", tableAcc, want, strings.Join(table, "\n"))
	}
	passes := len(stream) / len(table)
	for p := 0; p < passes; p++ {
		if !slices.Equal(stream[p*len(table):(p+1)*len(table)], table) {
			t.Errorf("-stream pass %d logged\n%s\ntable mode logged\n%s", p,
				strings.Join(stream[p*len(table):(p+1)*len(table)], "\n"), strings.Join(table, "\n"))
		}
	}
	for reason, n := range want {
		want[reason] = n * float64(passes)
	}
	if passes == 0 || len(stream) != passes*len(table) || !maps.Equal(streamAcc, want) {
		t.Errorf("-stream logged %d rows over %d passes, account %v", len(stream), passes, streamAcc)
	}
	if tableOut == "" || tableOut != streamOut {
		t.Errorf("table mode printed\n%s\n-stream printed\n%s", tableOut, streamOut)
	}
}

// TestDescribeListsEveryColumn: -describe loads every column, not the
// projection a mining run would use.
func TestDescribeListsEveryColumn(t *testing.T) {
	path := synthCSV(t, 2_000)
	out := runArcs(t, nil, "-in", path, "-describe", "-x", "age", "-y", "salary", "-crit", "group")
	for _, name := range []string{"salary", "commission", "age", "elevel", "car", "zipcode", "hvalue", "hyears", "loan", "group"} {
		if !strings.Contains(out, "\n"+name+" ") {
			t.Errorf("-describe omits %s:\n%s", name, out)
		}
	}
}
