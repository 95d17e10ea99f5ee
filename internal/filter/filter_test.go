package filter

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"arcs/internal/grid"
)

func mk(t *testing.T, rows ...string) *grid.Bitmap {
	t.Helper()
	bm, err := grid.New(len(rows), len(rows[0]))
	if err != nil {
		t.Fatal(err)
	}
	for r, line := range rows {
		for c, ch := range line {
			if ch == '#' {
				bm.Set(r, c)
			}
		}
	}
	return bm
}

// lowPassRef is the cell-at-a-time 3×3 filter LowPass must equal: the
// mean of the in-bounds neighborhood against threshold, nine Gets per
// cell.
func lowPassRef(bm *grid.Bitmap, threshold float64) *grid.Bitmap {
	rows, cols := bm.Rows(), bm.Cols()
	out, _ := grid.New(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			set, total := 0, 0
			for dr := -1; dr <= 1; dr++ {
				for dc := -1; dc <= 1; dc++ {
					rr, cc := r+dr, c+dc
					if rr < 0 || rr >= rows || cc < 0 || cc >= cols {
						continue
					}
					total++
					if bm.Get(rr, cc) {
						set++
					}
				}
			}
			if float64(set) >= threshold*float64(total) {
				out.Set(r, c)
			}
		}
	}
	return out
}

func randomBitmap(rng *rand.Rand, rows, cols int, density float64) *grid.Bitmap {
	bm, _ := grid.New(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if rng.Float64() < density {
				bm.Set(r, c)
			}
		}
	}
	return bm
}

// TestLowPassMatchesReference: the word-level filter equals the
// cell-at-a-time one on random bitmaps from 1×1 to 140×140 — word
// boundaries, edges and corners included — at the thresholds where the
// exact in-bounds rule matters (1/3 of 3 or 6 cells, 0.5 of 4 or 6) and
// at random ones.
func TestLowPassMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dims := []int{1, 2, 3, 63, 64, 65, 127, 128, 129, 140}
	n := 300
	if testing.Short() {
		n = 100
	}
	for i := 0; i < n; i++ {
		rows, cols := 1+rng.Intn(140), 1+rng.Intn(140)
		if i < len(dims)*len(dims) {
			rows, cols = dims[i/len(dims)], dims[i%len(dims)]
		}
		bm := randomBitmap(rng, rows, cols, rng.Float64())
		for _, th := range []float64{0.5, 1.0 / 3, 0.1, 0.9, 1, 1 - rng.Float64()} {
			got, err := LowPass(bm, th)
			if err != nil {
				t.Fatal(err)
			}
			want := lowPassRef(bm, th)
			for r := 0; r < rows; r++ {
				if !grid.MasksEqual(got.Row(r), want.Row(r)) {
					t.Fatalf("%d×%d at %v:\ninput\n%s\ngot\n%s\nwant\n%s", rows, cols, th, bm, got, want)
				}
			}
		}
	}
}

// BenchmarkLowPass filters 50×50 and 100×100 grids, the CLI's and the
// daemon benchmark's bin counts, at the default threshold.
func BenchmarkLowPass(b *testing.B) {
	for _, bins := range []int{50, 100} {
		bm := randomBitmap(rand.New(rand.NewSource(1)), bins, bins, 0.4)
		b.Run(fmt.Sprintf("bins=%d", bins), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := LowPass(bm, 0.5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestLowPassFillsHole(t *testing.T) {
	// A dense block with a single hole: the hole's neighborhood is 8/9
	// set, so a 0.5 threshold fills it (the Figure 7 effect).
	bm := mk(t,
		"#####",
		"##.##",
		"#####",
	)
	out, err := LowPass(bm, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Get(1, 2) {
		t.Error("hole not filled")
	}
}

func TestLowPassRemovesIsolatedNoise(t *testing.T) {
	bm := mk(t,
		".....",
		"..#..",
		".....",
	)
	out, err := LowPass(bm, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if out.Any() {
		t.Errorf("isolated cell survived smoothing:\n%s", out)
	}
}

func TestLowPassPreservesSolidBlock(t *testing.T) {
	bm := mk(t,
		"....",
		".##.",
		".##.",
		"....",
	)
	out, err := LowPass(bm, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= 2; r++ {
		for c := 1; c <= 2; c++ {
			if !out.Get(r, c) {
				t.Errorf("block cell (%d,%d) lost", r, c)
			}
		}
	}
}

func TestLowPassThresholdValidation(t *testing.T) {
	bm := mk(t, "#")
	if _, err := LowPass(bm, 0); err == nil {
		t.Error("threshold 0 should error")
	}
	if _, err := LowPass(bm, 1.5); err == nil {
		t.Error("threshold > 1 should error")
	}
}

func TestLowPassInputUnmodified(t *testing.T) {
	bm := mk(t, "#..", "...", "...")
	LowPass(bm, 0.5)
	if !bm.Get(0, 0) {
		t.Error("LowPass modified its input")
	}
}

func TestLowPassEdgeNeighborhoods(t *testing.T) {
	// A corner cell has a 4-cell neighborhood; 3 of 4 set >= 0.5 keeps it.
	bm := mk(t,
		"##..",
		"#...",
		"....",
	)
	out, err := LowPass(bm, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Get(0, 0) {
		t.Error("corner with 3/4 set neighborhood should survive")
	}
}

func TestKernelValidation(t *testing.T) {
	d, _ := grid.NewDense(3, 3)
	if _, err := Convolve(d, Kernel{Size: 2, Weights: make([]float64, 4)}); err == nil {
		t.Error("even kernel size should error")
	}
	if _, err := Convolve(d, Kernel{Size: 3, Weights: make([]float64, 4)}); err == nil {
		t.Error("wrong weight count should error")
	}
}

func TestConvolveBoxUniformField(t *testing.T) {
	// A constant field must be unchanged by a normalized smoothing kernel
	// (including at the edges, thanks to renormalization).
	d, _ := grid.NewDense(4, 5)
	for r := 0; r < 4; r++ {
		for c := 0; c < 5; c++ {
			d.Set(r, c, 2.5)
		}
	}
	for _, k := range []Kernel{Box3(), Gauss3()} {
		out, err := Convolve(d, k)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 4; r++ {
			for c := 0; c < 5; c++ {
				if math.Abs(out.At(r, c)-2.5) > 1e-9 {
					t.Fatalf("constant field changed at (%d,%d): %v", r, c, out.At(r, c))
				}
			}
		}
	}
}

func TestConvolveBoxAveragesSpike(t *testing.T) {
	d, _ := grid.NewDense(3, 3)
	d.Set(1, 1, 9)
	out, err := Convolve(d, Box3())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out.At(1, 1)-1) > 1e-9 {
		t.Errorf("center = %v, want 1 (9/9)", out.At(1, 1))
	}
	// Corner neighborhood holds 4 in-bounds cells incl. the spike;
	// renormalized box average = 9/4... no: weights are 1/9 each, used
	// sum = 4/9, acc = 9/9 = 1, renormalized = 1 * 1 / (4/9) = 9/4.
	if math.Abs(out.At(0, 0)-2.25) > 1e-9 {
		t.Errorf("corner = %v, want 2.25", out.At(0, 0))
	}
}

func TestSobelDetectsVerticalEdge(t *testing.T) {
	// Left half 0, right half 1: SobelX fires along the boundary,
	// SobelY stays ~0 in the interior.
	d, _ := grid.NewDense(5, 6)
	for r := 0; r < 5; r++ {
		for c := 3; c < 6; c++ {
			d.Set(r, c, 1)
		}
	}
	gx, err := Convolve(d, SobelX())
	if err != nil {
		t.Fatal(err)
	}
	gy, err := Convolve(d, SobelY())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gx.At(2, 2)) < 1 {
		t.Errorf("SobelX at edge = %v, want strong response", gx.At(2, 2))
	}
	if math.Abs(gy.At(2, 2)) > 1e-9 {
		t.Errorf("SobelY in interior = %v, want 0", gy.At(2, 2))
	}
	mag, err := EdgeMagnitude(d)
	if err != nil {
		t.Fatal(err)
	}
	if mag.At(2, 2) < 1 {
		t.Errorf("edge magnitude = %v, want strong", mag.At(2, 2))
	}
	if mag.At(2, 0) > 1e-9 {
		t.Errorf("edge magnitude far from edge = %v, want 0", mag.At(2, 0))
	}
}

func TestLowPassWeightedRescuesBoundaryCell(t *testing.T) {
	// A cell just below the support threshold surrounded by strong cells
	// is rescued; an isolated weak cell is not.
	sup, _ := grid.NewDense(3, 5)
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			sup.Set(r, c, 0.10)
		}
	}
	sup.Set(1, 1, 0.04) // weak interior cell among strong neighbors
	sup.Set(1, 4, 0.04) // isolated weak cell
	bm, err := LowPassWeighted(sup, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !bm.Get(1, 1) {
		t.Error("interior weak cell should be rescued by strong neighbors")
	}
	if bm.Get(1, 4) {
		t.Error("isolated weak cell should not survive")
	}
	if _, err := LowPassWeighted(sup, -1); err == nil {
		t.Error("negative threshold should error")
	}
}

func TestSmoothingImprovesClusterability(t *testing.T) {
	// The Figure 7 scenario: a ragged blob with holes becomes a compact
	// block after smoothing, reducing the number of set-cell "islands".
	bm := mk(t,
		"######",
		"##.###",
		"###.##",
		"######",
	)
	out, err := LowPass(bm, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if out.PopCount() < bm.PopCount() {
		t.Errorf("smoothing lost cells: %d -> %d", bm.PopCount(), out.PopCount())
	}
	if !out.Get(1, 2) || !out.Get(2, 3) {
		t.Error("holes not filled")
	}
}
