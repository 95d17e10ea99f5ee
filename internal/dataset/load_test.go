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
	"slices"
	"strings"
	"testing"

	"arcs/internal/obs"
)

// loadOutcome is everything a table load can be observed to produce,
// cut to the kept columns.
type loadOutcome struct {
	rows     []Tuple
	dicts    [][]string
	stats    ResilientStats
	onBad    []string
	counters map[string]int64
	err      string
}

// loadRun is one observed load: the schema it registered labels in,
// the table it returned and the rest of its outcome.
type loadRun struct {
	schema *Schema
	table  *Table
	loadOutcome
}

// loadFunc loads a file under schema, keeping the columns named in keep
// when it projects.
type loadFunc func(schema *Schema, keep []string, q Quarantine, reg *obs.Registry) (*Table, ResilientStats, error)

// observeLoad infers a schema from the first sample rows of path and
// loads the file, keeping the columns in keep.
func observeLoad(t *testing.T, path string, sample, maxBad int, keep []string, load loadFunc) loadRun {
	t.Helper()
	schema, err := InferCSVSchema(path, sample)
	if err != nil {
		t.Fatal(err)
	}
	out := loadRun{schema: schema}
	q := Quarantine{MaxBadRows: maxBad, OnBad: func(reason string, row int, err error) {
		out.onBad = append(out.onBad, fmt.Sprintf("%s|%d|%v", reason, row, err))
	}}
	reg := obs.NewRegistry()
	tb, stats, err := load(schema, keep, q, reg)
	if stats.Quarantined == nil {
		stats.Quarantined = map[string]int64{}
	}
	out.table, out.stats = tb, stats
	if err != nil {
		out.err = err.Error()
	}
	out.counters = reg.Snapshot().Counters
	return out
}

// cut is the outcome of the load cut to the columns in keep (every
// column when keep is empty), in file order.
func (r loadRun) cut(t *testing.T, keep []string) loadOutcome {
	t.Helper()
	out := r.loadOutcome
	cols, err := keptColumns(r.schema, keep)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cols {
		out.dicts = append(out.dicts, r.schema.At(c).Categories())
	}
	if r.table == nil {
		return out
	}
	pos := make([]int, len(cols))
	for j, c := range cols {
		pos[j] = r.table.Schema().MustIndex(r.schema.At(c).Name)
	}
	for i := 0; i < r.table.Len(); i++ {
		row := make(Tuple, len(pos))
		for j, p := range pos {
			row[j] = r.table.Row(i)[p]
		}
		out.rows = append(out.rows, row)
	}
	return out
}

// sequentialLoad is the reference table-mode path: stream, quarantine,
// materialize. It always decodes every column.
func sequentialLoad(path string) loadFunc {
	return func(schema *Schema, _ []string, q Quarantine, reg *obs.Registry) (*Table, ResilientStats, error) {
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

func parallelLoad(path string, workers int) loadFunc {
	return func(schema *Schema, keep []string, q Quarantine, reg *obs.Registry) (*Table, ResilientStats, error) {
		tb, rep, err := loadCSV(context.Background(), path, schema, keep, q, reg, workers)
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

// projections are the column subsets a differential check loads from a
// file with the given header: every other column from the first and
// every other from the second, so each column is both kept and dropped.
// A one-column header has none; the unprojected loads cover it.
func projections(header []string) [][]string {
	if len(header) < 2 {
		return nil
	}
	var out [][]string
	for first := 0; first < 2; first++ {
		var keep []string
		for i := first; i < len(header); i += 2 {
			keep = append(keep, header[i])
		}
		out = append(out, keep)
	}
	return out
}

// checkLoadMatches compares LoadCSV at several worker counts and budgets
// against the sequential path on one file, loading every column and
// each of the file's projections; a projected load must equal the
// sequential load cut to its columns. The schema is inferred from the
// usual 10k-row prefix and from a 2-row one: the short prefix leaves
// most labels for the load to register, and makes more cells fail to
// parse under the inferred kinds.
func checkLoadMatches(t *testing.T, path string) {
	t.Helper()
	for _, sample := range []int{10_000, 2} {
		schema, err := InferCSVSchema(path, sample)
		if err != nil {
			return
		}
		keeps := append([][]string{nil}, projections(schema.Names())...)
		for _, maxBad := range []int{-1, 0, 3} {
			seq := observeLoad(t, path, sample, maxBad, nil, sequentialLoad(path))
			for _, keep := range keeps {
				want := seq.cut(t, keep)
				for _, workers := range []int{1, 2, 3, 8} {
					where := fmt.Sprintf("sample=%d keep=%q workers=%d max-bad-rows=%d", sample, keep, workers, maxBad)
					got := observeLoad(t, path, sample, maxBad, keep, parallelLoad(path, workers))
					if got.table != nil && keep != nil && !slices.Equal(got.table.Schema().Names(), keep) {
						t.Fatalf("%s: table columns %q", where, got.table.Schema().Names())
					}
					compareLoads(t, where, got.cut(t, keep), want)
				}
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
	// Bad cells only in columns a projection drops (b and d when every
	// other column from the first is kept), and a field-count error. Under
	// a 2-row prefix b and d are quantitative; under the 10k prefix b's
	// junk makes it categorical, while d's cells all parse.
	"a,b,c,d,g\n1,2,3,4,A\n5,6,7,8,B\n1,abc,3,NaN,C\n1,1_000,3,-Inf,D\n1,1e400,3,0x1p-2,E\n" +
		"1," + strings.Repeat("9", 400) + ",3,0" + strings.Repeat("0", 398) + "1,F\n1,2,3,4\n1,2,3,4,G\n" +
		"1," + strings.Repeat("9", 308) + ".5,3,-" + strings.Repeat("9", 309) + ",H\n9,9,9,9,I\n",
	// A dropped non-finite cell followed by a parse error in the same
	// row: parse wins. Then non-finite cells without one, kept and
	// dropped.
	"a,b,c,d,g\n1,2,3,4,A\n5,6,7,8,B\n1,NaN,3,oops,C\n1,Inf,3,4,D\n1,2,NaN,x,E\n-Inf,2,3,4,F\n9,9,9,9,G\n",
	// Quoted rows whose quoted cells fall in a dropped column.
	"a,b,g\n1,2,A\n3,4,B\n5,\"6\",C\n7,\"8,9\",D\n10,\"NaN\",E\n11,\"+.5\",F\n12,13,G\n",
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
		tb, rep, err := loadCSV(context.Background(), c.path, schema, nil, Quarantine{}, nil, c.workers)
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
	if _, _, err := loadCSV(ctx, path, schema, nil, Quarantine{}, nil, 2); err == nil || !strings.Contains(err.Error(), "canceled") {
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

// synthKeep is the projection a run mining (age, salary) by group loads
// from writeSynthCSV's columns.
var synthKeep = []string{"age", "salary", "group"}

// TestRowDecoderZeroAllocPerRow guards the decoder's hot path: a clean,
// unquoted row whose labels are known decodes without allocating,
// whether it keeps every column (CSVStream) or only synthKeep and
// validates the rest. The input fits one block, so no refill happens
// inside the measured loop.
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

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	kept, err := keptColumns(schema, synthKeep)
	if err != nil {
		t.Fatal(err)
	}
	d := rowDecoder{path: path, rowBase: 1, cols: decodeColumns(schema.attrs, kept, schema.project(kept).attrs)}
	d.sc.reset(f, 0, fi.Size(), true)
	if _, err := readHeader(&d.sc); err != nil {
		t.Fatal(err)
	}
	dst := make(Tuple, len(kept))
	allocs = testing.AllocsPerRun(1000, func() {
		if err := d.next(dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("the projected decoder allocates %.2f objects per clean row, want 0", allocs)
	}
}

// TestLoadCSVZeroAllocPerRow: a whole load, projected or not, allocates
// per slab, block and label, never per row — a load 16× larger
// allocates only a slab's worth of objects more.
func TestLoadCSVZeroAllocPerRow(t *testing.T) {
	small, big := writeSynthCSV(t, 500), writeSynthCSV(t, 8000)
	for _, keep := range [][]string{nil, synthKeep} {
		for _, workers := range []int{1, 2} {
			load := func(path string) func() {
				schema, err := InferCSVSchema(path, 10_000)
				if err != nil {
					t.Fatal(err)
				}
				return func() {
					if _, _, err := loadCSV(context.Background(), path, schema, keep, Quarantine{}, nil, workers); err != nil {
						t.Fatal(err)
					}
				}
			}
			smallAllocs := testing.AllocsPerRun(5, load(small))
			bigAllocs := testing.AllocsPerRun(5, load(big))
			if bigAllocs > smallAllocs+8 {
				t.Errorf("keep=%q workers=%d: loading 8000 rows allocates %.0f objects vs %.0f for 500 — the decoder allocates per row",
					keep, workers, bigAllocs, smallAllocs)
			}
			t.Logf("keep=%q workers=%d: %.0f allocations for 500 rows, %.0f for 8000", keep, workers, smallAllocs, bigAllocs)
		}
	}
}

// TestLoadCSVProjection: a projected load holds the kept columns in file
// order under a schema that shares their attributes, reports kept and
// total columns, ignores repeated names and rejects unknown ones.
func TestLoadCSVProjection(t *testing.T) {
	path := writeSynthCSV(t, 300)
	schema, err := InferCSVSchema(path, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	tb, rep, err := LoadCSV(context.Background(), path, schema, []string{"group", "age", "salary", "age"}, Quarantine{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := tb.Schema().Names(); !slices.Equal(got, []string{"salary", "age", "group"}) {
		t.Errorf("projected columns %q, want [salary age group] (file order)", got)
	}
	if tb.Schema().Attr("group") != schema.Attr("group") {
		t.Error("the projected schema does not share the group attribute")
	}
	if rep.Columns != 10 || rep.Kept != 3 || rep.Rows != 300 || tb.Len() != 300 || len(tb.Row(0)) != 3 {
		t.Errorf("report %+v, %d rows of width %d", rep, tb.Len(), len(tb.Row(0)))
	}
	var columns string
	for _, a := range rep.SpanAttrs() {
		if a.Key == "columns" {
			columns = a.Value
		}
	}
	if columns != "3/10" {
		t.Errorf("span columns = %q, want 3/10", columns)
	}
	if _, _, err := LoadCSV(context.Background(), path, schema, []string{"age", "nope"}, Quarantine{}, nil); err == nil ||
		!strings.Contains(err.Error(), `no attribute "nope"`) {
		t.Errorf("unknown column: err %v", err)
	}
	tb, rep, err = LoadCSV(context.Background(), path, schema, nil, Quarantine{}, nil)
	if err != nil || tb.Schema() != schema || rep.Kept != 10 || rep.Columns != 10 {
		t.Errorf("unprojected load: schema shared %v, report %+v, err %v", tb.Schema() == schema, rep, err)
	}
}

// TestLoadCSVObserved: the run-level load infers under an "infer" child
// of the "load" span, projects when every kept name exists, and loads
// every column when one is missing.
func TestLoadCSVObserved(t *testing.T) {
	path := writeSynthCSV(t, 300)
	sink := &obs.MemSink{}
	o := obs.New(sink)
	tb, rep, err := LoadCSVObserved(context.Background(), o, path, 10_000, synthKeep, Quarantine{})
	if err != nil || tb.Schema().Len() != 3 || rep.Kept != 3 {
		t.Fatalf("projected: %d columns, report %+v, err %v", tb.Schema().Len(), rep, err)
	}
	var load, infer obs.Event
	for _, e := range sink.Events() {
		switch e.Name {
		case "load":
			load = e
		case "infer":
			infer = e
		}
	}
	if load.ID == 0 || infer.Parent != load.ID || load.Attr("columns") != "3/10" {
		t.Errorf("load span %+v, infer span %+v", load, infer)
	}
	tb, rep, err = LoadCSVObserved(context.Background(), nil, path, 10_000, []string{"age", "nope", "group"}, Quarantine{})
	if err != nil || tb.Schema().Len() != 10 || rep.Kept != 10 {
		t.Errorf("missing column: %d columns, report %+v, err %v", tb.Schema().Len(), rep, err)
	}
}

// BenchmarkLoadCSV loads a 100k-row, 10-column CSV at one worker and at
// GOMAXPROCS workers, keeping every column and keeping synthKeep.
func BenchmarkLoadCSV(b *testing.B) {
	path := writeSynthCSV(b, 100_000)
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	for _, keep := range [][]string{nil, synthKeep} {
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			name := fmt.Sprintf("workers=%d", workers)
			if keep != nil {
				name += "/projected"
			}
			b.Run(name, func(b *testing.B) {
				schema, err := InferCSVSchema(path, 10_000)
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(fi.Size())
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := loadCSV(context.Background(), path, schema, keep, Quarantine{}, nil, workers); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
