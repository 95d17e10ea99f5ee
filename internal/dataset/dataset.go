// Package dataset defines the relational data model used throughout ARCS:
// attributes, schemas, tuples, in-memory tables and streaming tuple
// sources, plus CSV import/export.
//
// Every attribute value is stored as a float64. Quantitative attributes
// hold their numeric value directly; categorical attributes hold the
// integer code assigned by the schema's per-attribute dictionary. This
// uniform encoding is what lets the binner, the association rule engine
// and the classifiers treat tuples as flat numeric vectors while still
// being able to print values in their original form.
package dataset

import (
	"fmt"
	"sort"
)

// Kind distinguishes quantitative (ordered, continuous) attributes from
// categorical (unordered, finite-domain) attributes.
type Kind int

const (
	// Quantitative attributes have an implicit ordering and may assume
	// continuous values, e.g. "salary", "age", "interest rate".
	Quantitative Kind = iota
	// Categorical attributes have a finite number of possible values with
	// no ordering amongst themselves, e.g. "zip code", "hair color".
	Categorical
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case Quantitative:
		return "quantitative"
	case Categorical:
		return "categorical"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Attribute describes a single column of a table.
type Attribute struct {
	Name string
	Kind Kind

	// cats is the dictionary for categorical attributes: code -> label.
	cats []string
	// catIndex is the reverse dictionary: label -> code.
	catIndex map[string]int
}

// NumCategories reports the number of distinct category labels registered
// for the attribute. It is zero for quantitative attributes.
func (a *Attribute) NumCategories() int { return len(a.cats) }

// Category returns the label for a category code. It panics if the code is
// out of range, which always indicates a programming error (codes are only
// produced by CategoryCode on the same attribute).
func (a *Attribute) Category(code int) string {
	if code < 0 || code >= len(a.cats) {
		panic(fmt.Sprintf("dataset: category code %d out of range for attribute %q (%d categories)",
			code, a.Name, len(a.cats)))
	}
	return a.cats[code]
}

// Categories returns a copy of the attribute's category labels in code
// order.
func (a *Attribute) Categories() []string {
	out := make([]string, len(a.cats))
	copy(out, a.cats)
	return out
}

// CategoryCode returns the code for a label, registering the label if it
// has not been seen before. Calling it on a quantitative attribute is an
// error.
func (a *Attribute) CategoryCode(label string) (int, error) {
	if a.Kind != Categorical {
		return 0, fmt.Errorf("dataset: attribute %q is %s, not categorical", a.Name, a.Kind)
	}
	if a.catIndex == nil {
		a.catIndex = make(map[string]int)
	}
	if code, ok := a.catIndex[label]; ok {
		return code, nil
	}
	code := len(a.cats)
	a.cats = append(a.cats, label)
	a.catIndex[label] = code
	return code, nil
}

// codeBytes is CategoryCode for a categorical attribute and a label held
// in bytes; looking up a known label does not allocate.
func (a *Attribute) codeBytes(label []byte) int {
	if code, ok := a.catIndex[string(label)]; ok {
		return code
	}
	code, _ := a.CategoryCode(string(label))
	return code
}

// LookupCategory returns the code for a label without registering new
// labels. The second result reports whether the label is known.
func (a *Attribute) LookupCategory(label string) (int, bool) {
	code, ok := a.catIndex[label]
	return code, ok
}

// Schema is an ordered collection of attributes. The zero value is an
// empty schema ready for use.
type Schema struct {
	attrs  []*Attribute
	byName map[string]int
}

// NewSchema constructs a schema from (name, kind) pairs.
func NewSchema(attrs ...Attribute) *Schema {
	s := &Schema{byName: make(map[string]int, len(attrs))}
	for i := range attrs {
		s.MustAdd(attrs[i].Name, attrs[i].Kind)
	}
	return s
}

// Add appends an attribute and returns it. Duplicate names are rejected.
func (s *Schema) Add(name string, kind Kind) (*Attribute, error) {
	if s.byName == nil {
		s.byName = make(map[string]int)
	}
	if _, dup := s.byName[name]; dup {
		return nil, fmt.Errorf("dataset: duplicate attribute %q", name)
	}
	a := &Attribute{Name: name, Kind: kind}
	s.byName[name] = len(s.attrs)
	s.attrs = append(s.attrs, a)
	return a, nil
}

// MustAdd is Add but panics on error; intended for static schema
// construction where a duplicate is a programming error.
func (s *Schema) MustAdd(name string, kind Kind) *Attribute {
	a, err := s.Add(name, kind)
	if err != nil {
		panic(err)
	}
	return a
}

// Len reports the number of attributes.
func (s *Schema) Len() int { return len(s.attrs) }

// At returns the attribute at position i.
func (s *Schema) At(i int) *Attribute { return s.attrs[i] }

// Index returns the position of the named attribute, or an error if it
// does not exist.
func (s *Schema) Index(name string) (int, error) {
	i, ok := s.byName[name]
	if !ok {
		return 0, fmt.Errorf("dataset: no attribute %q (have %v)", name, s.Names())
	}
	return i, nil
}

// MustIndex is Index but panics on unknown names.
func (s *Schema) MustIndex(name string) int {
	i, err := s.Index(name)
	if err != nil {
		panic(err)
	}
	return i
}

// Attr returns the named attribute, or nil if it does not exist.
func (s *Schema) Attr(name string) *Attribute {
	if i, ok := s.byName[name]; ok {
		return s.attrs[i]
	}
	return nil
}

// Names returns the attribute names in schema order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.attrs))
	for i, a := range s.attrs {
		out[i] = a.Name
	}
	return out
}

// QuantitativeNames returns the names of the quantitative attributes in
// schema order. Useful for enumerating candidate LHS attribute pairs.
func (s *Schema) QuantitativeNames() []string {
	var out []string
	for _, a := range s.attrs {
		if a.Kind == Quantitative {
			out = append(out, a.Name)
		}
	}
	return out
}

// CategoricalNames returns the names of the categorical attributes in
// schema order.
func (s *Schema) CategoricalNames() []string {
	var out []string
	for _, a := range s.attrs {
		if a.Kind == Categorical {
			out = append(out, a.Name)
		}
	}
	return out
}

// Clone returns a deep copy of the schema, including category
// dictionaries. Sources that encode labels lazily share attribute state;
// cloning isolates a schema from further mutation.
func (s *Schema) Clone() *Schema {
	c := &Schema{byName: make(map[string]int, len(s.attrs))}
	for _, a := range s.attrs {
		na := &Attribute{Name: a.Name, Kind: a.Kind}
		if len(a.cats) > 0 {
			na.cats = append([]string(nil), a.cats...)
			na.catIndex = make(map[string]int, len(a.cats))
			for code, label := range na.cats {
				na.catIndex[label] = code
			}
		}
		c.byName[a.Name] = len(c.attrs)
		c.attrs = append(c.attrs, na)
	}
	return c
}

// project returns the schema of the attributes at positions idx, in
// that order. It shares them with s: labels registered through either
// schema show in both.
func (s *Schema) project(idx []int) *Schema {
	p := &Schema{byName: make(map[string]int, len(idx))}
	for _, i := range idx {
		a := s.attrs[i]
		p.byName[a.Name] = len(p.attrs)
		p.attrs = append(p.attrs, a)
	}
	return p
}

// FormatValue renders the encoded value of attribute i in human form:
// the category label for categoricals, %g for quantitative values.
func (s *Schema) FormatValue(i int, v float64) string {
	a := s.attrs[i]
	if a.Kind == Categorical {
		code := int(v)
		if code >= 0 && code < len(a.cats) {
			return a.cats[code]
		}
		return fmt.Sprintf("<cat %d>", code)
	}
	return fmt.Sprintf("%g", v)
}

// SortedCategories returns the labels of a categorical attribute sorted
// lexicographically (not in code order). It is primarily useful for
// deterministic output in reports and tests.
func (a *Attribute) SortedCategories() []string {
	out := a.Categories()
	sort.Strings(out)
	return out
}
