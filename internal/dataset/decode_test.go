package dataset

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// checkParseDecimal holds the decimal fast paths to
// strconv.ParseFloat: whenever parseDecimal accepts a cell, its bits
// must be strconv's; whenever scanDecimal accepts one, strconv must
// accept it with a finite value; and isFloat must agree with strconv on
// every cell.
func checkParseDecimal(t *testing.T, s string) {
	t.Helper()
	if _, err := strconv.ParseFloat(s, 64); isFloat([]byte(s)) != (err == nil) {
		t.Fatalf("isFloat(%q) = %v, strconv error %v", s, err != nil, err)
	}
	if n, ok := scanDecimal([]byte(s)); ok {
		if n < len(s) && s[n] != ',' || strings.Contains(s[:n], ",") {
			t.Fatalf("scanDecimal(%q) stopped at %d, not at a comma", s, n)
		}
		if v, err := strconv.ParseFloat(s[:n], 64); err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("scanDecimal accepts %q, strconv returns %v, %v", s[:n], v, err)
		}
	}
	v, n, ok := parseDecimal([]byte(s))
	if !ok {
		return
	}
	if n < len(s) && s[n] != ',' {
		t.Fatalf("parseDecimal(%q) stopped at %d, not at a comma", s, n)
	}
	if strings.Contains(s[:n], ",") {
		t.Fatalf("parseDecimal(%q) consumed a comma", s)
	}
	want, err := strconv.ParseFloat(s[:n], 64)
	if err != nil {
		t.Fatalf("parseDecimal(%q) = %v, strconv rejects %q: %v", s, v, s[:n], err)
	}
	if math.Float64bits(v) != math.Float64bits(want) {
		t.Fatalf("parseDecimal(%q) = %v (%#x), strconv %v (%#x)", s, v, math.Float64bits(v), want, math.Float64bits(want))
	}
}

var decimalSeeds = []string{
	"0", "-0", "+0", "-0.0", "1", "12.5", ".5", "5.", "-.5", "+7.25,x",
	"91498.0159079869", "496303.9821592084", "22.541739791462515",
	"9007199254740991", "9007199254740992", "0.1", "0.3", "123456789.123456",
	"0.0000000000000000000001", "0.00000000000000000000001", "1234567890123456789",
	"1e5", "Inf", "NaN", "0x1p-2", "1_000", "", ".", "-", "1.2.3", "1,2", " 1",
	"-Inf", "+Inf", "1e400", "+.5", "-.", "1e", "5.,", "0x10", "Infinity", "nan",
	strings.Repeat("9", 308) + ".99", "-" + strings.Repeat("9", 309), strings.Repeat("9", 400),
	"0" + strings.Repeat("0", 398) + "1", "0." + strings.Repeat("0", 400) + "1",
}

// TestInferCSVSchemaClassifiesLikeParseFloat: a column is quantitative
// exactly when strconv.ParseFloat accepts every cell of the prefix,
// though inference converts only the cells a plain decimal scan cannot
// vouch for.
func TestInferCSVSchemaClassifiesLikeParseFloat(t *testing.T) {
	cells := []string{
		"1", "-2.5", "+.5", "5.", "0", "NaN", "Inf", "-Inf", "+Inf", "infinity", "nan",
		"1e400", "1e-400", "0x1p-2", "0x10", "1_000", "0x1_0p0", "abc", "1.2.3", ".", "-",
		strings.Repeat("9", 308), strings.Repeat("9", 309), strings.Repeat("9", 400),
		"0" + strings.Repeat("0", 398) + "1", "0." + strings.Repeat("0", 400) + "1",
	}
	for _, cell := range cells {
		path := writeLoadInput(t, "x,y\n1,2\n"+cell+",3\n")
		schema, err := InferCSVSchema(path, 10)
		if err != nil {
			t.Fatal(err)
		}
		_, perr := strconv.ParseFloat(cell, 64)
		want := Categorical
		if perr == nil {
			want = Quantitative
		}
		if got := schema.Attr("x").Kind; got != want {
			t.Errorf("cell %.20q: inferred %v, want %v (strconv error %v)", cell, got, want, perr)
		}
	}
}

func TestParseDecimalMatchesStrconv(t *testing.T) {
	for _, s := range decimalSeeds {
		checkParseDecimal(t, s)
	}
	// Random decimals at every precision, the shape of real CSV cells.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200_000; i++ {
		x := rng.Float64() * math.Pow(10, float64(rng.Intn(24)-8))
		if rng.Intn(2) == 0 {
			x = -x
		}
		checkParseDecimal(t, strconv.FormatFloat(x, 'f', rng.Intn(22)-1, 64))
	}
	accepted := 0
	for _, s := range []string{"91498.0159079869", "-0", "5.", "0.1"} {
		if _, _, ok := parseDecimal([]byte(s)); ok {
			accepted++
		}
	}
	if accepted != 4 {
		t.Errorf("fast path accepted %d of 4 plain decimals", accepted)
	}
}

func FuzzParseDecimal(f *testing.F) {
	for _, s := range decimalSeeds {
		f.Add(s)
	}
	f.Fuzz(checkParseDecimal)
}
