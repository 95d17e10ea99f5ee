package dataset

import (
	"context"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"arcs/internal/cancelcheck"
	"arcs/internal/obs"
)

// slabRows is how many tuples share one backing array in a loaded table.
const slabRows = 4096

// errStopped ends a range worker once an earlier range has already
// exhausted the quarantine budget, so its rows can no longer matter.
var errStopped = errors.New("dataset: load stopped")

// LoadReport describes one LoadCSV call.
type LoadReport struct {
	// Bytes is the file size and Rows the number of tuples loaded.
	Bytes int64
	Rows  int
	// Workers is the number of byte ranges decoded concurrently.
	Workers int
	// Mode is "parallel" or "single-range"; Reason says why a load ran
	// as a single range ("one worker", "quoted", "short body").
	Mode, Reason string
	// Columns is the number of columns in the file and Kept the number
	// the table holds.
	Columns, Kept int
	// Stats is the quarantine account of the load.
	Stats ResilientStats
}

// SpanAttrs renders the report as attributes of a load span.
func (r LoadReport) SpanAttrs() []obs.Attr {
	mode := r.Mode
	if r.Reason != "" {
		mode += " (" + r.Reason + ")"
	}
	return []obs.Attr{
		obs.Int("bytes", int(r.Bytes)),
		obs.Int("rows", r.Rows),
		obs.Int("workers", r.Workers),
		obs.Str("mode", mode),
		obs.Str("columns", strconv.Itoa(r.Kept)+"/"+strconv.Itoa(r.Columns)),
		obs.Int("rows_quarantined", int(r.Stats.Total())),
	}
}

// LoadCSV reads a CSV file into an in-memory Table: the table-mode
// equivalent of OpenCSVStream, wrapped in NewResilient with quarantine
// policy q, drained by Materialize — and the same to the byte. Rows,
// category codes, quarantine stats, OnBad calls and their order, the
// metrics mirrored into reg (when non-nil) and every error text match
// that sequential path.
//
// keep names the columns the table holds; when it is empty, every
// column is kept. The table's schema then holds the kept attributes of
// schema, in file order, and shares them with it, so the labels the
// load registers show in both; its rows equal the sequential path's
// rows cut to those columns. The other columns are validated but not
// converted: a plain decimal is accepted after one byte scan, any
// other quantitative cell is parsed and checked for finiteness as if it
// were kept, and categorical cells are skipped, as a label cannot fail
// a row. So a projection never changes which rows are loaded or
// quarantined, nor the quarantine account, OnBad calls and errors.
//
// The file body is cut into runtime.GOMAXPROCS(0) newline-aligned byte
// ranges decoded concurrently, each read in blocks with ReadAt. The
// ranges are then merged in file order: category labels get their codes
// in first-appearance order and bad rows are replayed through the
// quarantine ledger, so the row that exhausts a strict budget is the
// same one the sequential pass stops at. Because a quoted field may span
// a newline, a file whose body holds a '"' is decoded as one range.
// Cancellation is polled once per block.
func LoadCSV(ctx context.Context, path string, schema *Schema, keep []string, q Quarantine, reg *obs.Registry) (*Table, LoadReport, error) {
	return loadCSV(ctx, path, schema, keep, q, reg, runtime.GOMAXPROCS(0))
}

// LoadCSVObserved is the table-mode load of a mining run: it infers the
// schema of the CSV at path from its first sampleRows rows, then loads
// the file with LoadCSV, keeping the columns named in keep. When the
// file lacks one of them every column is loaded, so the run's own
// attribute check reports the missing name against the whole header, as
// it would without a projection. A root "load" span of o covers both
// steps and carries the LoadReport; its "infer" child times the
// inference. o may be nil.
func LoadCSVObserved(ctx context.Context, o *obs.Observer, path string, sampleRows int, keep []string, q Quarantine) (*Table, LoadReport, error) {
	span := o.Root("load", obs.Str("path", path))
	var tb *Table
	var rep LoadReport
	infer := span.Child("infer")
	schema, err := InferCSVSchema(path, sampleRows)
	infer.End()
	if err == nil {
		if slices.ContainsFunc(keep, func(name string) bool { return schema.Attr(name) == nil }) {
			keep = nil
		}
		tb, rep, err = LoadCSV(ctx, path, schema, keep, q, o.Registry())
	}
	span.End(rep.SpanAttrs()...)
	return tb, rep, err
}

func loadCSV(ctx context.Context, path string, schema *Schema, keep []string, q Quarantine, reg *obs.Registry, workers int) (*Table, LoadReport, error) {
	rep := LoadReport{Workers: 1, Mode: "single-range"}
	if schema == nil {
		return nil, rep, fmt.Errorf("dataset: LoadCSV requires a schema; use InferCSVSchema first")
	}
	kept, err := keptColumns(schema, keep)
	if err != nil {
		return nil, rep, err
	}
	rep.Columns, rep.Kept = schema.Len(), len(kept)
	f, err := os.Open(path)
	if err != nil {
		return nil, rep, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, rep, err
	}
	rep.Bytes = fi.Size()

	var hs csvScanner
	hs.reset(f, 0, rep.Bytes, true)
	header, err := readHeader(&hs)
	if err == nil {
		err = checkHeader(schema, header)
	}
	if err != nil {
		return nil, rep, err
	}
	body := hs.offset()
	// Like NewResilient after a successful OpenCSVStream.
	led := newLedger(q)
	if reg != nil {
		led.Observe(reg)
	}

	l := &loader{path: path, full: schema, schema: schema, keep: kept, file: f,
		chk: cancelcheck.New(ctx), maxBad: q.MaxBadRows}
	if len(kept) < schema.Len() {
		l.schema = schema.project(kept)
	}
	l.quantIdx = quantIndexes(l.schema)
	cuts, err := cutRanges(f, body, rep.Bytes, workers)
	if err != nil {
		return nil, rep, err
	}
	switch {
	case workers <= 1:
		rep.Reason = "one worker"
	case len(cuts) == 2:
		rep.Reason = "short body"
	}
	ranges := l.run(cuts)
	if len(ranges) > 1 && l.quoted.Load() {
		rep.Reason = "quoted"
		ranges = l.run([]int64{body, rep.Bytes})
	}
	if len(ranges) > 1 {
		rep.Mode, rep.Workers = "parallel", len(ranges)
	}
	if err := l.chk.Err(); err != nil {
		return nil, rep, err
	}
	tb, err := l.merge(ranges, &led, hs.line)
	rep.Stats = led.Stats()
	if err != nil {
		return nil, rep, err
	}
	rep.Rows = tb.Len()
	return tb, rep, nil
}

// keptColumns resolves the names in keep to their positions in schema,
// ascending and without repeats; an empty keep keeps every column.
func keptColumns(schema *Schema, keep []string) ([]int, error) {
	if len(keep) == 0 {
		all := make([]int, schema.Len())
		for i := range all {
			all[i] = i
		}
		return all, nil
	}
	idx := make([]int, 0, len(keep))
	for _, name := range keep {
		i, err := schema.Index(name)
		if err != nil {
			return nil, err
		}
		if !slices.Contains(idx, i) {
			idx = append(idx, i)
		}
	}
	slices.Sort(idx)
	return idx, nil
}

// cutRanges splits [body, size) into at most n ranges at line starts and
// returns the cut offsets, first body and last size, dropping empty
// ranges.
func cutRanges(f io.ReaderAt, body, size int64, n int) ([]int64, error) {
	cuts := []int64{body}
	buf := make([]byte, 4096)
	for i := 1; i < n; i++ {
		at := body + (size-body)*int64(i)/int64(n)
		if prev := cuts[len(cuts)-1]; at <= prev {
			continue
		}
		// The range starts after the first newline at or after at-1.
		cut, err := lineStart(f, at-1, size, buf)
		if err != nil {
			return nil, err
		}
		if cut < size && cut > cuts[len(cuts)-1] {
			cuts = append(cuts, cut)
		}
	}
	return append(cuts, size), nil
}

// lineStart returns the offset just past the first '\n' at or after
// off, or size when there is none.
func lineStart(f io.ReaderAt, off, size int64, buf []byte) (int64, error) {
	for off < size {
		n, err := f.ReadAt(buf[:min(int64(len(buf)), size-off)], off)
		for i, c := range buf[:n] {
			if c == '\n' {
				return off + int64(i) + 1, nil
			}
		}
		if err != nil && err != io.EOF {
			return 0, err
		}
		if n == 0 {
			break
		}
		off += int64(n)
	}
	return size, nil
}

// loader runs one LoadCSV call's range workers and merges their output.
type loader struct {
	path string
	// full is the file's schema, schema the table's: the attributes of
	// full at the positions in keep.
	full, schema *Schema
	keep         []int
	file         io.ReaderAt
	chk          *cancelcheck.Checker
	maxBad       int
	quantIdx     []int

	// quoted is set by the first parallel range to meet a '"'; stop is
	// the lowest index of a range that exhausted the budget on its own.
	quoted atomic.Bool
	stop   atomic.Int64
}

// badRow is one quarantined row of a range, in range-relative terms.
type badRow struct {
	rec  int       // records of the range up to and including this one
	seen int       // decoded rows of the range up to this one (non-finite)
	re   *RowError // nil for a non-finite row
}

// rangeLoad is the output of one range worker.
type rangeLoad struct {
	attrs   []*Attribute // the worker's private copy of the table schema's attributes
	slabs   [][]float64
	rows    int // tuples kept
	records int // records scanned, bad ones included
	lines   int // physical lines consumed
	decoded int // rows that decoded, non-finite ones included
	bad     []badRow
	// cats are the categorical columns; fresh[k] lists, for column
	// cats[k], the record at which each label the worker registered past
	// the schema's own first appeared.
	cats  []int
	fresh [][]int
	err   error // fatal: I/O, cancellation, errQuoted, errStopped
}

// run decodes each range [cuts[i], cuts[i+1]) on its own goroutine.
func (l *loader) run(cuts []int64) []*rangeLoad {
	n := len(cuts) - 1
	l.stop.Store(int64(n))
	out := make([]*rangeLoad, n)
	var wg sync.WaitGroup
	for i := range out {
		out[i] = &rangeLoad{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			l.decodeRange(i, cuts[i], cuts[i+1], n > 1, out[i])
		}(i)
	}
	wg.Wait()
	return out
}

// decodeRange is one range worker. Labels are coded through a private
// copy of the table's schema; merge maps them to the shared
// dictionaries.
func (l *loader) decodeRange(idx int, start, end int64, parallel bool, out *rangeLoad) {
	out.attrs = l.schema.Clone().attrs
	var known []int // labels per categorical column so far
	for c, a := range out.attrs {
		if a.Kind == Categorical {
			out.cats = append(out.cats, c)
			known = append(known, a.NumCategories())
		}
	}
	out.fresh = make([][]int, len(out.cats))
	var d rowDecoder
	d.sc.reset(l.file, start, end, !parallel)
	d.sc.poll = func() error {
		if err := l.chk.Err(); err != nil {
			return err
		}
		if (parallel && l.quoted.Load()) || l.stop.Load() < int64(idx) {
			return errStopped
		}
		return nil
	}
	d.path = l.path
	d.cols = decodeColumns(l.full.attrs, l.keep, out.attrs)

	w := len(out.attrs)
	slabCap := slabRows * w
	if est := int(end-start)/2 + 1; est < slabRows {
		slabCap = est * w
	}
	var slab []float64
	for {
		if len(slab)+w > cap(slab) {
			slab = make([]float64, 0, slabCap)
			out.slabs = append(out.slabs, nil)
		}
		row := slab[len(slab) : len(slab)+w]
		err := d.next(row)
		for k, c := range out.cats {
			for m := out.attrs[c].NumCategories(); known[k] < m; known[k]++ {
				out.fresh[k] = append(out.fresh[k], d.records)
			}
		}
		if err == nil || err == errNonFinite {
			out.decoded++
			if err == nil && !nonFinite(row, l.quantIdx) {
				slab = slab[:len(slab)+w]
				out.slabs[len(out.slabs)-1] = slab
				out.rows++
				continue
			}
			err = errNonFinite
		}
		if err == io.EOF {
			break
		}
		re := AsRowError(err)
		if re == nil && err != errNonFinite {
			if err == errQuoted {
				l.quoted.Store(true)
			}
			out.err = err
			break
		}
		out.bad = append(out.bad, badRow{rec: d.records, seen: out.decoded, re: re})
		if l.maxBad >= 0 && len(out.bad) > l.maxBad {
			// The merge fails at or before this row whatever the other
			// ranges hold; later ranges need not finish.
			for cur := l.stop.Load(); int64(idx) < cur && !l.stop.CompareAndSwap(cur, int64(idx)); cur = l.stop.Load() {
			}
			break
		}
	}
	out.records, out.lines = d.records, d.sc.line
}

// merge replays the ranges in file order: labels are registered in the
// shared schema, bad rows go through the quarantine ledger with
// file-absolute positions, and the kept rows become the table.
func (l *loader) merge(ranges []*rangeLoad, led *ledger, headerLines int) (*Table, error) {
	total := 0
	for _, r := range ranges {
		total += r.rows
	}
	rows := make([]Tuple, 0, total)
	recBase, lineBase, seenBase := 1, headerLines, 0
	for _, r := range ranges {
		for _, b := range r.bad {
			var reason string
			var row int
			var cause error
			if b.re != nil {
				l.place(b.re, recBase, lineBase)
				reason, row, cause = b.re.Reason, b.re.Row, b.re
			} else {
				row = seenBase + b.seen
				reason, cause = "non-finite", fmt.Errorf("non-finite value in row %d", row)
			}
			if qerr := led.quarantine(reason, row, cause); qerr != nil {
				l.register(r, b.rec)
				return nil, qerr
			}
		}
		if r.err != nil {
			l.register(r, r.records)
			return nil, fmt.Errorf("dataset: %s:%d: %w", l.path, recBase+r.records+1, r.err)
		}
		remap := l.register(r, r.records)
		w := len(r.attrs)
		for _, slab := range r.slabs {
			for j := 0; j < len(slab); j += w {
				t := Tuple(slab[j : j+w : j+w])
				for c, m := range remap {
					if code := int(t[c]) - m.from; code >= 0 {
						t[c] = float64(m.to[code])
					}
				}
				rows = append(rows, t)
			}
		}
		recBase += r.records
		lineBase += r.lines
		seenBase += r.decoded
	}
	tb := NewTable(l.schema)
	tb.rows = rows
	return tb, nil
}

// place turns a range-relative row error into a file-absolute one:
// "parse" rows count records, the CSV syntax errors count lines.
func (l *loader) place(re *RowError, recBase, lineBase int) {
	if re.Reason == "parse" {
		re.Row += recBase
		return
	}
	re.Row += lineBase
	var pe *csv.ParseError
	if errors.As(re.Err, &pe) {
		pe.StartLine += lineBase
		pe.Line += lineBase
	}
}

// codeMap sends a range's private label codes from..from+len(to)-1 to
// the shared dictionary's codes.
type codeMap struct {
	from int
	to   []int
}

// register adds the labels a range saw first, up to and including
// record upTo, to the shared schema in first-appearance order, and
// returns the code maps of the columns whose private codes differ from
// the shared ones.
func (l *loader) register(r *rangeLoad, upTo int) map[int]codeMap {
	var remap map[int]codeMap
	for k, firsts := range r.fresh {
		c := r.cats[k]
		shared, local := l.schema.At(c), r.attrs[c]
		from := local.NumCategories() - len(firsts)
		m := codeMap{from: from, to: make([]int, 0, len(firsts))}
		moved := false
		for j, rec := range firsts {
			if rec > upTo {
				break
			}
			code, _ := shared.CategoryCode(local.cats[from+j])
			m.to = append(m.to, code)
			moved = moved || code != from+j
		}
		if moved {
			if remap == nil {
				remap = map[int]codeMap{}
			}
			remap[c] = m
		}
	}
	return remap
}
