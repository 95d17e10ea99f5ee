package dataset

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"arcs/internal/obs"
)

// loadOutcome is everything a table load can be observed to produce.
type loadOutcome struct {
	rows     []Tuple
	dicts    [][]string
	stats    ResilientStats
	onBad    []string
	counters map[string]int64
	err      string
}

func observeLoad(t *testing.T, path string, sample, maxBad int, load func(*Schema, Quarantine, *obs.Registry) (*Table, ResilientStats, error)) (loadOutcome, bool) {
	t.Helper()
	schema, err := InferCSVSchema(path, sample)
	if err != nil {
		return loadOutcome{}, false
	}
	var out loadOutcome
	q := Quarantine{MaxBadRows: maxBad, OnBad: func(reason string, row int, err error) {
		out.onBad = append(out.onBad, fmt.Sprintf("%s|%d|%v", reason, row, err))
	}}
	reg := obs.NewRegistry()
	tb, stats, err := load(schema, q, reg)
	if stats.Quarantined == nil {
		stats.Quarantined = map[string]int64{}
	}
	out.stats = stats
	if err != nil {
		out.err = err.Error()
	}
	if tb != nil {
		for i := 0; i < tb.Len(); i++ {
			out.rows = append(out.rows, tb.Row(i))
		}
	}
	for i := 0; i < schema.Len(); i++ {
		out.dicts = append(out.dicts, schema.At(i).Categories())
	}
	out.counters = reg.Snapshot().Counters
	return out, true
}

// sequentialLoad is the reference table-mode path: stream, quarantine,
// materialize.
func sequentialLoad(path string) func(*Schema, Quarantine, *obs.Registry) (*Table, ResilientStats, error) {
	return func(schema *Schema, q Quarantine, reg *obs.Registry) (*Table, ResilientStats, error) {
		cs, err := OpenCSVStream(path, schema)
		if err != nil {
			return nil, ResilientStats{Quarantined: map[string]int64{}}, err
		}
		defer cs.Close()
		r := NewResilient(cs, Retry{Max: 2}, q)
		r.Observe(reg)
		tb, err := Materialize(r)
		return tb, r.Stats(), err
	}
}

func parallelLoad(path string, workers int) func(*Schema, Quarantine, *obs.Registry) (*Table, ResilientStats, error) {
	return func(schema *Schema, q Quarantine, reg *obs.Registry) (*Table, ResilientStats, error) {
		tb, rep, err := loadCSV(context.Background(), path, schema, q, reg, workers)
		return tb, rep.Stats, err
	}
}

func sameRows(a, b []Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// checkLoadMatches compares LoadCSV at several worker counts and budgets
// against the sequential path on one file. The schema is inferred from
// the usual 10k-row prefix and from a 2-row one: the short prefix leaves
// most labels for the load to register, and makes more cells fail to
// parse under the inferred kinds.
func checkLoadMatches(t *testing.T, path string) {
	t.Helper()
	for _, sample := range []int{10_000, 2} {
		for _, maxBad := range []int{-1, 0, 3} {
			want, ok := observeLoad(t, path, sample, maxBad, sequentialLoad(path))
			if !ok {
				return
			}
			for _, workers := range []int{1, 2, 3, 8} {
				got, _ := observeLoad(t, path, sample, maxBad, parallelLoad(path, workers))
				compareLoads(t, fmt.Sprintf("sample=%d workers=%d max-bad-rows=%d", sample, workers, maxBad), got, want)
			}
		}
	}
}

func compareLoads(t *testing.T, where string, got, want loadOutcome) {
	t.Helper()
	if got.err != want.err {
		t.Fatalf("%s: error %q, sequential %q", where, got.err, want.err)
	}
	if !sameRows(got.rows, want.rows) {
		t.Fatalf("%s: rows differ:\n got %v\nwant %v", where, got.rows, want.rows)
	}
	if !reflect.DeepEqual(got.dicts, want.dicts) {
		t.Fatalf("%s: dictionaries %q, sequential %q", where, got.dicts, want.dicts)
	}
	if !reflect.DeepEqual(got.stats, want.stats) {
		t.Fatalf("%s: stats %+v, sequential %+v", where, got.stats, want.stats)
	}
	if !reflect.DeepEqual(got.onBad, want.onBad) {
		t.Fatalf("%s: OnBad calls\n%q\nsequential\n%q", where, got.onBad, want.onBad)
	}
	if !reflect.DeepEqual(got.counters, want.counters) {
		t.Fatalf("%s: counters %v, sequential %v", where, got.counters, want.counters)
	}
}

// loadSeeds are inputs that exercise every decoder and merge path.
var loadSeeds = []string{
	"age,salary,group\n30,50000,A\n45,80000,B\n62,30000,A\n",
	// Quoted fields with embedded commas and newlines.
	"x,g\n1,\"a,b\"\n2,\"multi\nline\"\n3,plain\n4,\"a,b\"\n",
	"\"x\",\"g\"\n1,A\n2,\"B\"\"q\"\n3,\"unterminated\n4,A\n",
	"x,g\n1,A\n2,B\"bare\n3,C\n4,\"ok\"junk\n5,D\n",
	// CRLF line endings, blank lines, no trailing newline.
	"x,y,g\r\n1,2,A\r\n\r\n3,4,B\r\n5,6,A",
	"x,g\n\n\n1,A\n\n2,B\n\n",
	"x,g\n1,A\n2,B\r",
	"\n\nx,g\n1,A\n",
	// Non-finite and out-of-range cells.
	"x,y,g\n1,2,A\nNaN,2,B\n3,Inf,C\n4,1e400,D\n-Inf,0,E\n5,6,F\n",
	// Field-count errors and unparseable cells.
	"x,y,g\n1,2,A\n1,2\n1,2,3,4\n1,oops,B\n7,8,C\n",
	"x,g\nA1,L1\nbad,row,here\n1,L2\nnope,L3\n2,L4\n3,L5\n",
	// A label first seen in the last range.
	"x,g\n1,A\n2,A\n3,A\n4,A\n5,A\n6,A\n7,A\n8,Z\n",
	"x,g\n1,A\n2,B\n3,C\n4,D\n5,E\n6,F\n7,G\n8,H\n9,I\n",
	// A bad row that registers a label before its bad cell, then labels
	// first seen after the row that exhausts the budget.
	"g,x\nA,1\nB,2\nC,bad\nD,3\nE,x\nF,4\nG,5\nH,6\n",
	// Fewer rows than workers.
	"x,g\n1,A\n",
	"x,g\n",
	"x,g",
	"",
	"a,a\n1,2\n",
	"x,g\n1,A\n2,B,extra\n3\n4,C\n5,D\n6,x\"y\n7,E\n",
}

func writeLoadInput(t testing.TB, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "in.csv")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadCSVMatchesSequential(t *testing.T) {
	for i, in := range loadSeeds {
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			checkLoadMatches(t, writeLoadInput(t, in))
		})
	}
}

// FuzzLoadCSV is the differential harness: LoadCSV at 1, 2, 3 and 8
// workers must reproduce OpenCSVStream + NewResilient + Materialize
// exactly — rows, dictionaries, stats, OnBad sequence, metrics and error
// text — under unlimited, strict and small quarantine budgets.
func FuzzLoadCSV(f *testing.F) {
	for _, in := range loadSeeds {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, input string) {
		checkLoadMatches(t, writeLoadInput(t, input))
	})
}

func TestLoadCSVLargeMatchesSequential(t *testing.T) {
	var b strings.Builder
	b.WriteString("x,y,g\n")
	for i := 0; i < 20_000; i++ {
		switch {
		case i%997 == 0:
			b.WriteString("1,oops,A\n")
		case i%1009 == 0:
			b.WriteString("NaN,1,B\n")
		case i == 19_990:
			b.WriteString("5,5,late\n")
		default:
			fmt.Fprintf(&b, "%d.%d,%d,%c\n", i, i%7, i*3, 'A'+rune(i%5))
		}
	}
	checkLoadMatches(t, writeLoadInput(t, b.String()))
}

func TestLoadCSVReport(t *testing.T) {
	var b strings.Builder
	b.WriteString("x,g\n")
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&b, "%d,%c\n", i, 'A'+rune(i%3))
	}
	plain := writeLoadInput(t, b.String())
	quoted := writeLoadInput(t, b.String()+"1000,\"A\"\n")
	cases := []struct {
		path         string
		workers      int
		mode, reason string
		wantWorkers  int
		wantRows     int
	}{
		{plain, 4, "parallel", "", 4, 1000},
		{plain, 1, "single-range", "one worker", 1, 1000},
		{quoted, 4, "single-range", "quoted", 1, 1001},
	}
	for _, c := range cases {
		schema, err := InferCSVSchema(c.path, 100)
		if err != nil {
			t.Fatal(err)
		}
		tb, rep, err := loadCSV(context.Background(), c.path, schema, Quarantine{}, nil, c.workers)
		if err != nil {
			t.Fatal(err)
		}
		fi, _ := os.Stat(c.path)
		if rep.Mode != c.mode || rep.Reason != c.reason || rep.Workers != c.wantWorkers ||
			rep.Rows != c.wantRows || tb.Len() != c.wantRows || rep.Bytes != fi.Size() {
			t.Errorf("workers=%d: report %+v, rows %d", c.workers, rep, tb.Len())
		}
	}
}

func TestLoadCSVCanceled(t *testing.T) {
	path := writeLoadInput(t, "x,g\n1,A\n2,B\n")
	schema, err := InferCSVSchema(path, 10)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := loadCSV(ctx, path, schema, Quarantine{}, nil, 2); err == nil || !strings.Contains(err.Error(), "canceled") {
		t.Fatalf("canceled load returned %v", err)
	}
}

// TestInferCSVSchemaRegistersPrefixLabels: inference registers the
// labels of the prefix rows in first-appearance order, skipping rows
// that do not decode, so a stream sees the same codes a table load
// assigns.
func TestInferCSVSchemaRegistersPrefixLabels(t *testing.T) {
	path := writeLoadInput(t, "x,g\n1,B\n2,A\nbad,row,here\n3,\"C\n4,B\n5,D\n")
	schema, err := InferCSVSchema(path, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := schema.Attr("g").Categories(); !reflect.DeepEqual(got, []string{"B", "A"}) {
		t.Errorf("prefix labels %q, want [B A]", got)
	}
	if schema.Attr("x").NumCategories() != 0 || schema.Attr("x").Kind != Quantitative {
		t.Errorf("x inferred %v", schema.Attr("x").Kind)
	}
}

// writeSynthCSV writes n rows shaped like synthgen's output: ten
// columns, full-precision floats, small integers and a two-label
// criterion.
func writeSynthCSV(tb testing.TB, n int) string {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	var b strings.Builder
	b.WriteString("salary,commission,age,elevel,car,zipcode,hvalue,hyears,loan,group\n")
	for i := 0; i < n; i++ {
		group := "other"
		if rng.Intn(5) < 2 {
			group = "A"
		}
		fmt.Fprintf(&b, "%v,%d,%v,%d,%d,%d,%v,%v,%v,%s\n",
			20000+rng.Float64()*130000, rng.Intn(2)*rng.Intn(75000), 20+rng.Float64()*60,
			rng.Intn(5), 1+rng.Intn(20), rng.Intn(9), rng.Float64()*900000,
			1+rng.Float64()*29, rng.Float64()*500000, group)
	}
	return writeLoadInput(tb, b.String())
}

// TestRowDecoderZeroAllocPerRow guards the decoder's hot path: a clean,
// unquoted row whose labels are known decodes without allocating. The
// input fits one block, so no refill happens inside the measured loop.
func TestRowDecoderZeroAllocPerRow(t *testing.T) {
	path := writeSynthCSV(t, 2000)
	schema, err := InferCSVSchema(path, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := OpenCSVStream(path, schema)
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := cs.Next(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("CSVStream.Next allocates %.2f objects per clean row, want 0", allocs)
	}
}

// TestLoadCSVZeroAllocPerRow: a whole load allocates per slab, block and
// label, never per row — a load 16× larger allocates only a slab's worth
// of objects more.
func TestLoadCSVZeroAllocPerRow(t *testing.T) {
	small, big := writeSynthCSV(t, 500), writeSynthCSV(t, 8000)
	for _, workers := range []int{1, 2} {
		load := func(path string) func() {
			schema, err := InferCSVSchema(path, 10_000)
			if err != nil {
				t.Fatal(err)
			}
			return func() {
				if _, _, err := loadCSV(context.Background(), path, schema, Quarantine{}, nil, workers); err != nil {
					t.Fatal(err)
				}
			}
		}
		smallAllocs := testing.AllocsPerRun(5, load(small))
		bigAllocs := testing.AllocsPerRun(5, load(big))
		if bigAllocs > smallAllocs+8 {
			t.Errorf("workers=%d: loading 8000 rows allocates %.0f objects vs %.0f for 500 — the decoder allocates per row",
				workers, bigAllocs, smallAllocs)
		}
		t.Logf("workers=%d: %.0f allocations for 500 rows, %.0f for 8000", workers, smallAllocs, bigAllocs)
	}
}

// BenchmarkLoadCSV loads a 100k-row, 10-column CSV at one worker and at
// GOMAXPROCS workers.
func BenchmarkLoadCSV(b *testing.B) {
	path := writeSynthCSV(b, 100_000)
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			schema, err := InferCSVSchema(path, 10_000)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(fi.Size())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := loadCSV(context.Background(), path, schema, Quarantine{}, nil, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
