package dataset

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
)

// blockSize is the read granularity of the CSV scanner: each ReadAt
// fills at most this much of a scanner's buffer. A longer line grows the
// buffer to fit it.
const blockSize = 1 << 20

// errQuoted stops a scanner that may not hand quoted records to
// encoding/csv (a parallel range, whose cut points assume no quoted
// field spans a newline).
var errQuoted = errors.New("dataset: quoted record in a parallel range")

// csvScanner reads the CSV records that start in the byte range
// [start, end) of a file, in blocks. An unquoted record is returned as
// its line, in place: it aliases the block buffer and is valid until the
// next call. Any line containing a '"' is handed to encoding/csv (or
// refused, see handoff), so quoting, escaping and multi-line fields keep
// encoding/csv's exact semantics, errors included. Unquoted lines follow
// encoding/csv's rules too: "\r\n" ends a line like "\n", a "\r" right
// before the end of the input is dropped, and blank lines are skipped
// but counted.
type csvScanner struct {
	r        io.ReaderAt
	next     int64 // file offset of buf[lim]
	end      int64 // end of the range
	buf      []byte
	pos, lim int // unconsumed window of buf
	qnext    int // next '"' at or after the last quote check, lim when none is buffered, -1 to rescan
	line     int // physical lines consumed, counted the way encoding/csv counts them
	fields   [][]byte

	// handoff hands quoted records to encoding/csv; without it scan
	// returns errQuoted at the first line containing a quote.
	handoff bool
	// poll, when set, runs before every block read; a non-nil result
	// stops the scan with that error (cancellation, a sibling's stop).
	poll func() error

	// The encoding/csv fallback: cr reads through a bufio.Reader over
	// feed, which serves this scanner's own buffer a line at a time, so
	// cr never buffers past the record it returns.
	cr       *csv.Reader
	feed     csvFeed
	csvLines int    // lines fed to cr so far
	arena    []byte // backing store of a fallback record's fields
}

// reset points the scanner at [start, end) of r, keeping its buffers.
func (s *csvScanner) reset(r io.ReaderAt, start, end int64, handoff bool) {
	size := blockSize
	if n := end - start; n < int64(size) {
		size = int(max(n, 4096))
	}
	if cap(s.buf) < size {
		s.buf = make([]byte, size)
	}
	s.buf = s.buf[:cap(s.buf)]
	s.r, s.next, s.end = r, start, end
	s.pos, s.lim, s.qnext, s.line = 0, 0, -1, 0
	s.handoff = handoff
	s.cr, s.csvLines = nil, 0
}

// offset is the file offset of the first unconsumed byte.
func (s *csvScanner) offset() int64 { return s.next - int64(s.lim-s.pos) }

// fill moves the unconsumed window to the front of the buffer and reads
// the next block after it, growing the buffer when the window fills it.
// It returns io.EOF at the end of the range.
func (s *csvScanner) fill() error {
	if s.next >= s.end {
		return io.EOF
	}
	if s.poll != nil {
		if err := s.poll(); err != nil {
			return err
		}
	}
	if s.pos > 0 {
		s.lim = copy(s.buf, s.buf[s.pos:s.lim])
		s.pos = 0
	}
	if s.lim == len(s.buf) {
		grown := make([]byte, 2*len(s.buf))
		copy(grown, s.buf[:s.lim])
		s.buf = grown
	}
	want := len(s.buf) - s.lim
	if rem := s.end - s.next; int64(want) > rem {
		want = int(rem)
	}
	n, err := s.r.ReadAt(s.buf[s.lim:s.lim+want], s.next)
	s.lim += n
	s.next += int64(n)
	s.qnext = -1
	if n < want {
		if err != nil && err != io.EOF {
			return err
		}
		// The file is shorter than when the range was cut.
		s.end = s.next
		if n == 0 {
			return io.EOF
		}
	}
	return nil
}

// hasQuote reports whether buf[a:b] holds a '"'. One scan per block
// serves every line before the next quote.
func (s *csvScanner) hasQuote(a, b int) bool {
	if s.qnext < a {
		s.qnext = s.lim
		if i := bytes.IndexByte(s.buf[a:s.lim], '"'); i >= 0 {
			s.qnext = a + i
		}
	}
	return s.qnext < b
}

// scan returns the next record and the physical line it starts on,
// counted from the start of the range. An unquoted record comes back as
// its line, without the line ending, for the caller to split; a quoted
// one as the fields encoding/csv read. A record encoding/csv rejects
// comes back as its *csv.ParseError, with lines counted the same way;
// the scanner stays positioned after it. io.EOF ends the range.
func (s *csvScanner) scan() (line []byte, fields [][]byte, lineNo int, err error) {
	for {
		i := bytes.IndexByte(s.buf[s.pos:s.lim], '\n')
		end, adv := s.pos+i, i+1
		if i < 0 {
			if err := s.fill(); err == nil {
				continue
			} else if err != io.EOF {
				return nil, nil, 0, err
			}
			if s.pos == s.lim {
				return nil, nil, 0, io.EOF
			}
			end, adv = s.lim, s.lim-s.pos // the last line has no newline
		}
		start, stop := s.pos, end
		if stop > start && s.buf[stop-1] == '\r' {
			stop--
		}
		if stop == start {
			s.pos += adv
			s.line++
			continue
		}
		if s.hasQuote(start, end) {
			if !s.handoff {
				return nil, nil, 0, errQuoted
			}
			fields, lineNo, err := s.readQuoted()
			return nil, fields, lineNo, err
		}
		s.pos += adv
		s.line++
		return s.buf[start:stop], nil, s.line, nil
	}
}

// scanFields is scan with unquoted records split into fields too.
func (s *csvScanner) scanFields() ([][]byte, int, error) {
	line, fields, lineNo, err := s.scan()
	if err == nil && fields == nil {
		s.fields = splitFields(s.fields[:0], line)
		fields = s.fields
	}
	return fields, lineNo, err
}

// splitFields appends the comma-separated fields of line to dst.
func splitFields(dst [][]byte, line []byte) [][]byte {
	start := 0
	for i, c := range line {
		if c == ',' {
			dst = append(dst, line[start:i])
			start = i + 1
		}
	}
	return append(dst, line[start:])
}

// readQuoted reads the record starting at the current position through
// encoding/csv.
func (s *csvScanner) readQuoted() ([][]byte, int, error) {
	if s.cr == nil {
		s.feed = csvFeed{s: s}
		s.cr = csv.NewReader(bufio.NewReaderSize(&s.feed, 4096))
		s.cr.FieldsPerRecord = -1 // the decoder checks the count
		s.cr.ReuseRecord = true
	}
	startLine := s.line + 1
	delta := s.line - s.csvLines
	s.feed.lines, s.feed.mid = 0, false
	rec, err := s.cr.Read()
	s.line += s.feed.lines
	s.csvLines += s.feed.lines
	if err != nil {
		var pe *csv.ParseError
		if errors.As(err, &pe) {
			pe.StartLine += delta
			pe.Line += delta
			return nil, startLine, pe
		}
		return nil, startLine, err
	}
	total := 0
	for _, f := range rec {
		total += len(f)
	}
	if cap(s.arena) < total {
		s.arena = make([]byte, 0, total)
	}
	arena := s.arena[:0]
	s.fields = s.fields[:0]
	for _, f := range rec {
		a := len(arena)
		arena = append(arena, f...)
		s.fields = append(s.fields, arena[a:len(arena):len(arena)])
	}
	return s.fields, startLine, nil
}

// csvFeed serves the scanner's buffer to encoding/csv at most one line
// per Read, so the reader's bufio layer never holds bytes past the line
// encoding/csv asked for, and counts the lines it hands over.
type csvFeed struct {
	s     *csvScanner
	lines int
	mid   bool // the last byte served was not a newline
}

func (f *csvFeed) Read(p []byte) (int, error) {
	s := f.s
	if s.pos == s.lim {
		if err := s.fill(); err != nil {
			return 0, err
		}
	}
	w := s.buf[s.pos:s.lim]
	if i := bytes.IndexByte(w, '\n'); i >= 0 {
		w = w[:i+1]
	}
	n := copy(p, w)
	if !f.mid {
		f.lines++
	}
	f.mid = w[n-1] != '\n'
	s.pos += n
	return n, nil
}

// readHeader reads the header record. Its fields alias the scanner's
// buffer.
func readHeader(s *csvScanner) ([][]byte, error) {
	header, _, err := s.scanFields()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CSV header: %w", err)
	}
	return header, nil
}

// checkHeader verifies that a CSV header names exactly the schema's
// attributes, in order.
func checkHeader(schema *Schema, header [][]byte) error {
	if len(header) != schema.Len() {
		return fmt.Errorf("dataset: CSV has %d columns, schema has %d attributes", len(header), schema.Len())
	}
	for i, name := range header {
		if schema.At(i).Name != string(name) {
			return fmt.Errorf("dataset: CSV column %d is %q, schema expects %q", i, name, schema.At(i).Name)
		}
	}
	return nil
}

// rowDecoder turns scanned records into tuples. Every column of the
// file is checked; a kept column is converted into its tuple position —
// a quantitative cell parsed, a categorical label coded through the
// column's dictionary, registering labels on first sight — and a
// dropped column is validated without being converted (see
// column). It is the one row decoder behind CSVStream and LoadCSV;
// InferCSVSchema reads its prefix with the same scanner and cell
// validator.
type rowDecoder struct {
	sc   csvScanner
	path string
	cols []column // one per column of the file, in file order
	// rowBase is added to the record count to number "parse" rows:
	// 1 when the scanner starts at the header, 0 for a body range.
	rowBase int
	records int // records scanned, bad ones included
	// dropNonFinite is set when a dropped quantitative cell of the
	// current record parsed to NaN or ±Inf.
	dropNonFinite bool
}

// column is how the decoder treats one column of the file.
type column struct {
	// attr names the column and, when it is kept and categorical, codes
	// its labels. A dropped column's attribute is only read.
	attr *Attribute
	// dst is the tuple position of a kept column, -1 for a dropped one.
	// A dropped quantitative cell is accepted after one byte scan when
	// it is a plain decimal (see scanDecimal) and otherwise parsed and
	// checked for finiteness like a kept one, so it fails its row
	// exactly as it would if kept; a dropped categorical cell cannot
	// fail a row and is skipped.
	dst int
}

// decodeColumns lists how the decoder treats the columns of a file
// whose attributes are attrs: column keep[j] is kept, decoded through
// kept[j] into tuple position j, and every other column is dropped.
func decodeColumns(attrs []*Attribute, keep []int, kept []*Attribute) []column {
	cols := make([]column, len(attrs))
	for i, a := range attrs {
		cols[i] = column{attr: a, dst: -1}
	}
	for j, i := range keep {
		cols[i] = column{attr: kept[j], dst: j}
	}
	return cols
}

// next decodes the next record into dst. A row-scoped failure comes
// back as a *RowError and leaves the decoder on the following record:
// "malformed" and "field-count" rows carry the physical line,
// "parse" rows the record number. Cells are decoded left to right, so
// a row that fails to parse has registered the labels before the bad
// cell, exactly as a partially decoded row always has. A record whose
// cells all parse but a dropped one is NaN or ±Inf returns
// errNonFinite. Other errors (I/O, errQuoted, a poll's error) are
// returned as they are.
func (d *rowDecoder) next(dst Tuple) error {
	line, fields, lineNo, err := d.sc.scan()
	if err != nil {
		var pe *csv.ParseError
		if errors.As(err, &pe) {
			d.records++
			return &RowError{Path: d.path, Row: pe.Line, Reason: "malformed", Err: pe}
		}
		return err
	}
	d.records++
	d.dropNonFinite = false
	n := len(fields)
	if fields == nil {
		n = bytes.Count(line, comma) + 1
	}
	if n != len(d.cols) {
		pe := &csv.ParseError{StartLine: lineNo, Line: lineNo, Column: 1, Err: csv.ErrFieldCount}
		return &RowError{Path: d.path, Row: lineNo, Reason: "field-count", Err: pe}
	}
	if fields != nil {
		for i, f := range fields {
			if err := d.cell(&d.cols[i], f, dst); err != nil {
				return err
			}
		}
		return d.nonFinite()
	}
	// An unquoted line is split as it is decoded; a plain decimal cell
	// is parsed (or, dropped, validated) and skipped over in one step.
	for i := range d.cols {
		c := &d.cols[i]
		switch {
		case c.attr.Kind == Categorical && c.dst < 0:
			line = skipField(line)
			continue
		case c.attr.Kind == Quantitative && c.dst >= 0:
			if v, n, ok := parseDecimal(line); ok {
				dst[c.dst] = v
				line = line[min(n+1, len(line)):]
				continue
			}
		case c.attr.Kind == Quantitative:
			if n, ok := scanDecimal(line); ok {
				line = line[min(n+1, len(line)):]
				continue
			}
		}
		f := line
		if j := bytes.IndexByte(line, ','); j >= 0 {
			f, line = line[:j], line[j+1:]
		}
		if err := d.cell(c, f, dst); err != nil {
			return err
		}
	}
	return d.nonFinite()
}

var comma = []byte{','}

// skipField returns line past its first field and the comma after it.
func skipField(line []byte) []byte {
	if j := bytes.IndexByte(line, ','); j >= 0 {
		return line[j+1:]
	}
	return line[len(line):]
}

// nonFinite reports a dropped non-finite cell of the record just
// decoded. It comes after every cell has parsed, so a later parse
// failure in the same row wins, as it does for a kept column.
func (d *rowDecoder) nonFinite() error {
	if d.dropNonFinite {
		return errNonFinite
	}
	return nil
}

// cell decodes field f of column c into dst.
func (d *rowDecoder) cell(c *column, f []byte, dst Tuple) error {
	if c.attr.Kind == Categorical {
		if c.dst >= 0 {
			dst[c.dst] = float64(c.attr.codeBytes(f))
		}
		return nil
	}
	if c.dst < 0 {
		if n, ok := scanDecimal(f); ok && n == len(f) {
			return nil
		}
	}
	v, err := parseFloat(f)
	if err != nil {
		return &RowError{Path: d.path, Row: d.rowBase + d.records, Reason: "parse",
			Err: fmt.Errorf("attribute %q: %w", c.attr.Name, err)}
	}
	if c.dst >= 0 {
		dst[c.dst] = v
	} else if math.IsNaN(v) || math.IsInf(v, 0) {
		d.dropNonFinite = true
	}
	return nil
}

// errNonFinite marks a decoded row with a NaN or ±Inf quantitative cell.
var errNonFinite = errors.New("non-finite")

// isFloat reports whether strconv.ParseFloat(string(f), 64) accepts f,
// converting only the cells a plain decimal scan cannot vouch for.
func isFloat(f []byte) bool {
	if n, ok := scanDecimal(f); ok && n == len(f) {
		return true
	}
	_, err := strconv.ParseFloat(string(f), 64)
	return err == nil
}

// maxDecimalIntDigits bounds the integer digits scanDecimal accepts:
// any decimal with at most 308 of them is below 10^308, so it parses to
// a finite float64 without a range error.
const maxDecimalIntDigits = 308

// scanDecimal reports the length of a plain decimal at the start of b —
// an optional sign, digits and at most one '.', with at least one digit
// and at most maxDecimalIntDigits before the point — ending at a comma
// or the end of b. strconv.ParseFloat accepts every such decimal and
// returns a finite value, so a cell that scans needs no conversion to be
// known good. Anything else — exponents, Inf, NaN, hex, underscores,
// longer integers, junk — reports !ok and is left to strconv.
func scanDecimal(b []byte) (n int, ok bool) {
	i := 0
	if len(b) > 0 && (b[0] == '-' || b[0] == '+') {
		i = 1
	}
	start := i
	for i < len(b) && b[i]-'0' < 10 {
		i++
	}
	digits := i - start
	if digits > maxDecimalIntDigits {
		return 0, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		start = i
		for i < len(b) && b[i]-'0' < 10 {
			i++
		}
		digits += i - start
	}
	if digits == 0 || (i < len(b) && b[i] != ',') {
		return 0, false
	}
	return i, true
}

// parseFloat is strconv.ParseFloat(string(f), 64) with a fast path for
// plain decimals.
func parseFloat(f []byte) (float64, error) {
	if v, n, ok := parseDecimal(f); ok && n == len(f) {
		return v, nil
	}
	return strconv.ParseFloat(string(f), 64)
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// parseDecimal parses a plain decimal — an optional sign, digits and at
// most one '.' — at the start of b, ending at a comma or the end of b,
// and reports its length. It succeeds only when the value is m/10^k with
// an integer m < 2^53 and k ≤ 22: then m and 10^k are exact float64s
// and their correctly rounded quotient is the correctly rounded value
// of the decimal, so the bits equal strconv.ParseFloat's. Anything else
// — exponents, more significant digits, Inf, NaN, hex, junk — reports
// !ok and is left to strconv.
func parseDecimal(b []byte) (v float64, n int, ok bool) {
	i := 0
	if len(b) > 0 && (b[0] == '-' || b[0] == '+') {
		i = 1
	}
	var m uint64
	start := i
	for ; i < len(b) && b[i]-'0' < 10; i++ {
		m = m*10 + uint64(b[i]-'0')
	}
	digits, frac := i-start, 0
	if i < len(b) && b[i] == '.' {
		i++
		start = i
		for ; i < len(b) && b[i]-'0' < 10; i++ {
			m = m*10 + uint64(b[i]-'0')
		}
		frac = i - start
		digits += frac
	}
	// Up to 19 digits cannot overflow m; more are rejected here anyway.
	if digits == 0 || digits > 19 || m >= 1<<53 || frac >= len(pow10) || (i < len(b) && b[i] != ',') {
		return 0, 0, false
	}
	v = float64(m)
	if frac > 0 {
		v /= pow10[frac]
	}
	if b[0] == '-' {
		v = -v
	}
	return v, i, true
}
