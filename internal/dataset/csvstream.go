package dataset

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"os"
)

// CSVStream is a tuple source that reads a CSV file from disk on every
// pass instead of materializing it, preserving ARCS's constant-memory
// property for data sets that do not fit in RAM (the regime of the
// paper's Figure 15, where C4.5 dies of virtual-memory depletion and
// ARCS keeps streaming). Reset reopens the file.
//
// The schema must be known up front — either supplied by the caller or
// inferred by InferCSVSchema from a bounded prefix of the file — because
// a streaming pass cannot look ahead. Categorical labels not seen during
// inference are registered on the fly.
//
// Rows are decoded by the same row decoder LoadCSV runs over each of its
// byte ranges, so a stream and a table load of one file agree on every
// tuple, label code and row error.
type CSVStream struct {
	path   string
	schema *Schema

	file *os.File
	dec  rowDecoder
	buf  Tuple
}

// OpenCSVStream opens path for streaming with the given schema. The
// header row is validated against the schema on every pass.
func OpenCSVStream(path string, schema *Schema) (*CSVStream, error) {
	if schema == nil {
		return nil, fmt.Errorf("dataset: OpenCSVStream requires a schema; use InferCSVSchema first")
	}
	s := &CSVStream{path: path, schema: schema, buf: make(Tuple, schema.Len())}
	if err := s.Reset(); err != nil {
		return nil, err
	}
	return s, nil
}

// InferCSVSchema reads up to sampleRows data rows from the file and
// infers a schema the same way ReadCSV does (numeric columns become
// quantitative). It then registers the categorical labels of those rows
// in first-appearance order, so a schema handed to a streaming pass
// already knows every label of the prefix. Rows that fail to decode —
// malformed CSV syntax or a wrong field count — are skipped and do not
// count toward sampleRows. Pass the result to OpenCSVStream or LoadCSV.
func InferCSVSchema(path string, sampleRows int) (*Schema, error) {
	if sampleRows <= 0 {
		sampleRows = 1000
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	var sc csvScanner
	sc.reset(f, 0, fi.Size(), true)
	header, err := readHeader(&sc)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(header))
	for i, h := range header {
		names[i] = string(h)
	}
	bodyStart := sc.offset()

	// First pass: a column is categorical as soon as one of its cells
	// does not parse as a float, or when no row was kept at all. Cells
	// are classified without being converted.
	categorical := make([]bool, len(names))
	kept, err := scanPrefix(&sc, len(names), sampleRows, func(fields [][]byte) {
		for col, f := range fields {
			if !categorical[col] {
				if !isFloat(f) {
					categorical[col] = true
				}
			}
		}
	})
	if err != nil {
		return nil, err
	}
	if kept == 0 {
		for col := range categorical {
			categorical[col] = true
		}
	}
	schema := schemaOf(names, categorical)
	if kept == 0 || len(schema.CategoricalNames()) == 0 {
		return schema, nil
	}

	// Second pass over the same rows: register their labels in order.
	sc.reset(f, bodyStart, sc.offset(), true)
	_, err = scanPrefix(&sc, len(names), kept, func(fields [][]byte) {
		for col, f := range fields {
			if categorical[col] {
				schema.attrs[col].codeBytes(f)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return schema, nil
}

// scanPrefix calls fn for up to limit records that have width fields
// and no CSV syntax error, skipping the others, and reports how many it
// kept.
func scanPrefix(sc *csvScanner, width, limit int, fn func([][]byte)) (int, error) {
	kept := 0
	for kept < limit {
		fields, _, err := sc.scanFields()
		if err == io.EOF {
			break
		}
		if err != nil {
			// Malformed rows don't invalidate inference — the decoding
			// pass reports them per row; skip them here so one dirty row
			// cannot block opening the file.
			var pe *csv.ParseError
			if errors.As(err, &pe) {
				continue
			}
			return kept, err
		}
		if len(fields) != width {
			continue
		}
		kept++
		fn(fields)
	}
	return kept, nil
}

// Schema implements Source.
func (s *CSVStream) Schema() *Schema { return s.schema }

// Reset implements Source: it reopens the file and re-validates the
// header. A close error on the previous pass's handle is reported
// rather than dropped — on some filesystems close is where write-back
// and revalidation errors surface.
func (s *CSVStream) Reset() error {
	if s.file != nil {
		err := s.file.Close()
		s.file = nil
		if err != nil {
			return fmt.Errorf("dataset: closing %s before reset: %w", s.path, err)
		}
	}
	f, err := os.Open(s.path)
	if err != nil {
		return err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	s.dec.sc.reset(f, 0, fi.Size(), true)
	header, err := readHeader(&s.dec.sc)
	if err == nil {
		err = checkHeader(s.schema, header)
	}
	if err != nil {
		f.Close()
		return err
	}
	s.dec.path = s.path
	all, _ := keptColumns(s.schema, nil)
	s.dec.cols = decodeColumns(s.schema.attrs, all, s.schema.attrs)
	s.dec.rowBase = 1
	s.dec.records = 0
	s.file = f
	return nil
}

// Next implements Source. The returned tuple is reused between calls.
//
// Errors confined to one row — malformed CSV syntax, a wrong field
// count, an unparseable cell — come back as *RowError carrying the
// file:line position; the stream stays positioned so the following Next
// yields the next row. I/O errors propagate unwrapped and are fatal.
func (s *CSVStream) Next() (Tuple, error) {
	if s.file == nil {
		return nil, io.EOF
	}
	err := s.dec.next(s.buf)
	switch {
	case err == nil:
		return s.buf, nil
	case err == io.EOF:
		return nil, io.EOF
	case AsRowError(err) != nil:
		return nil, err
	}
	return nil, fmt.Errorf("dataset: %s:%d: %w", s.path, s.dec.rowBase+s.dec.records+1, err)
}

// Close releases the underlying file. The stream is unusable afterwards
// except via Reset, which reopens it.
func (s *CSVStream) Close() error {
	if s.file == nil {
		return nil
	}
	err := s.file.Close()
	s.file = nil
	return err
}
