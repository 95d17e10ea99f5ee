// Package filter implements the grid-smoothing preprocessing step of
// paper §3.4: a two-dimensional low-pass filter, borrowed from image
// processing, that replaces each cell with the average of its adjoining
// neighbors. Smoothing fills the small "holes" and jagged edges that
// inhibit BitOp from finding large complete clusters, and suppresses
// isolated noise cells.
//
// Two variants are provided, matching the paper: the binary filter used
// in the main experiments, and the support-weighted filter of §5 that
// averages rule support values instead of 0/1 presence. A small generic
// convolution engine with box, Gaussian and Sobel kernels supports the
// paper's suggestion of more advanced filters for detecting cluster edges
// and corners.
package filter

import (
	"fmt"
	"math"

	"arcs/internal/grid"
)

// LowPass applies the 3×3 binary low-pass filter: each output cell is set
// when the mean of its in-bounds 3×3 neighborhood (the cell included) is
// at least threshold. A threshold of 0.5 both fills single-cell holes in
// dense regions and erases isolated cells; thresholds <= 0 or > 1 are
// rejected. The input is not modified.
//
// The filter works on packed row words, 64 cells at a time: the
// neighborhood counts are bit-sliced sums of the three rows' words and
// their one-column shifts, compared against the fewest set cells a
// neighborhood of each in-bounds size needs.
func LowPass(bm *grid.Bitmap, threshold float64) (*grid.Bitmap, error) {
	if threshold <= 0 || threshold > 1 {
		return nil, fmt.Errorf("filter: threshold %g outside (0, 1]", threshold)
	}
	rows, cols := bm.Rows(), bm.Cols()
	out, err := grid.New(rows, cols)
	if err != nil {
		return nil, err
	}
	// need[t] is the fewest set cells for which a neighborhood of t
	// in-bounds cells passes float64(set) >= threshold*float64(t),
	// evaluated exactly so; t+1 when none does.
	var need [10]int
	for t := 1; t < len(need); t++ {
		k := 0
		for k <= t && float64(k) < threshold*float64(t) {
			k++
		}
		need[t] = k
	}
	wpr := bm.WordsPerRow()
	lastBit := uint64(1) << uint((cols-1)%64)
	buf := make([]uint64, 4*wpr)
	// v0 and v1 are the bit-sliced per-column sums (0..3) of rows r-1,
	// r and r+1; zero stands in for the rows past the edges. A bitmap's
	// bits past its last column are clear, so the last column's right
	// neighbor counts as clear; SetRow drops the ones res sets there.
	v0, v1, res, zero := buf[:wpr], buf[wpr:2*wpr], buf[2*wpr:3*wpr], buf[3*wpr:]
	for r := 0; r < rows; r++ {
		above, mid, below := zero, bm.Row(r), zero
		rowsIn := 1
		if r > 0 {
			above = bm.Row(r - 1)
			rowsIn++
		}
		if r < rows-1 {
			below = bm.Row(r + 1)
			rowsIn++
		}
		for w := range v0 {
			a, b, c := above[w], mid[w], below[w]
			v0[w] = a ^ b ^ c
			v1[w] = a&b | c&(a^b)
		}
		// The first and last columns have at most two in-bounds columns
		// around them, the others three.
		kMid, kEdge := need[rowsIn*min(cols, 3)], need[rowsIn*min(cols, 2)]
		for w := range res {
			// The left neighbor of a column is the plane shifted up one
			// bit, the right one shifted down, carrying across words.
			l0, l1 := v0[w]<<1, v1[w]<<1
			if w > 0 {
				l0 |= v0[w-1] >> 63
				l1 |= v1[w-1] >> 63
			}
			r0, r1 := v0[w]>>1, v1[w]>>1
			if w < wpr-1 {
				r0 |= v0[w+1] << 63
				r1 |= v1[w+1] << 63
			}
			// left + mid, three bits (s0, s1, s2); then + right, four
			// bits: the count 0..9.
			m0, m1 := v0[w], v1[w]
			s0, c := l0^m0, l0&m0
			s1, s2 := l1^m1^c, l1&m1|c&(l1^m1)
			var n [4]uint64
			n[0], c = s0^r0, s0&r0
			n[1], c = s1^r1^c, s1&r1|c&(s1^r1)
			n[2], n[3] = s2^c, s2&c
			ge := atLeast(n, kMid)
			if w == 0 {
				ge = ge&^1 | atLeast(n, kEdge)&1
			}
			if w == wpr-1 {
				ge = ge&^lastBit | atLeast(n, kEdge)&lastBit
			}
			res[w] = ge
		}
		out.SetRow(r, res)
	}
	return out, nil
}

// atLeast returns the bits whose bit-sliced count (n[i] holds bit i of
// every lane's count) is at least k, for 0 <= k < 16.
func atLeast(n [4]uint64, k int) uint64 {
	gt, eq := uint64(0), ^uint64(0)
	for i := len(n) - 1; i >= 0; i-- {
		if k>>uint(i)&1 == 1 {
			eq &= n[i]
		} else {
			gt |= eq & n[i]
			eq &^= n[i]
		}
	}
	return gt | eq
}

// Kernel is a square convolution kernel of odd size.
type Kernel struct {
	Size    int // odd edge length
	Weights []float64
}

func (k Kernel) validate() error {
	if k.Size <= 0 || k.Size%2 == 0 {
		return fmt.Errorf("filter: kernel size must be odd and positive, got %d", k.Size)
	}
	if len(k.Weights) != k.Size*k.Size {
		return fmt.Errorf("filter: kernel has %d weights, want %d", len(k.Weights), k.Size*k.Size)
	}
	return nil
}

// Box3 is the 3×3 box (uniform average) kernel — the paper's low-pass
// filter in kernel form.
func Box3() Kernel {
	w := make([]float64, 9)
	for i := range w {
		w[i] = 1.0 / 9
	}
	return Kernel{Size: 3, Weights: w}
}

// Gauss3 is a 3×3 Gaussian kernel, a gentler low-pass that preserves
// cluster cores better than the box filter.
func Gauss3() Kernel {
	return Kernel{Size: 3, Weights: []float64{
		1.0 / 16, 2.0 / 16, 1.0 / 16,
		2.0 / 16, 4.0 / 16, 2.0 / 16,
		1.0 / 16, 2.0 / 16, 1.0 / 16,
	}}
}

// SobelX is the horizontal Sobel gradient kernel (edge detection, paper
// §5 future work).
func SobelX() Kernel {
	return Kernel{Size: 3, Weights: []float64{
		-1, 0, 1,
		-2, 0, 2,
		-1, 0, 1,
	}}
}

// SobelY is the vertical Sobel gradient kernel.
func SobelY() Kernel {
	return Kernel{Size: 3, Weights: []float64{
		-1, -2, -1,
		0, 0, 0,
		1, 2, 1,
	}}
}

// Convolve applies a kernel to a dense grid. Out-of-bounds neighbors are
// treated by renormalizing over the in-bounds kernel weights (for kernels
// whose weights sum to ~1, i.e. smoothing kernels) or by zero-padding
// (for zero-sum kernels such as Sobel). The input is not modified.
func Convolve(d *grid.Dense, k Kernel) (*grid.Dense, error) {
	if err := k.validate(); err != nil {
		return nil, err
	}
	var wsum float64
	for _, w := range k.Weights {
		wsum += w
	}
	renormalize := math.Abs(wsum) > 1e-9
	rows, cols := d.Rows(), d.Cols()
	out, err := grid.NewDense(rows, cols)
	if err != nil {
		return nil, err
	}
	half := k.Size / 2
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			var acc, used float64
			for dr := -half; dr <= half; dr++ {
				for dc := -half; dc <= half; dc++ {
					rr, cc := r+dr, c+dc
					w := k.Weights[(dr+half)*k.Size+(dc+half)]
					if rr < 0 || rr >= rows || cc < 0 || cc >= cols {
						continue // zero padding
					}
					acc += w * d.At(rr, cc)
					used += w
				}
			}
			if renormalize && used != 0 {
				acc = acc * wsum / used
			}
			out.Set(r, c, acc)
		}
	}
	return out, nil
}

// LowPassWeighted applies the support-weighted smoothing of §5: the 3×3
// box filter runs over rule support values (a Dense grid) and the result
// is thresholded back to a bitmap at minSupport. Cells whose smoothed
// support reaches the mining threshold survive; this lets strong
// neighbors rescue boundary cells that individually just missed the
// support cut, while isolated weak cells fade out.
func LowPassWeighted(supports *grid.Dense, minSupport float64) (*grid.Bitmap, error) {
	if minSupport < 0 {
		return nil, fmt.Errorf("filter: negative support threshold %g", minSupport)
	}
	sm, err := Convolve(supports, Box3())
	if err != nil {
		return nil, err
	}
	return sm.Threshold(minSupport), nil
}

// EdgeMagnitude computes the Sobel gradient magnitude of a dense grid,
// highlighting cluster edges and corners (paper §5).
func EdgeMagnitude(d *grid.Dense) (*grid.Dense, error) {
	gx, err := Convolve(d, SobelX())
	if err != nil {
		return nil, err
	}
	gy, err := Convolve(d, SobelY())
	if err != nil {
		return nil, err
	}
	out, err := grid.NewDense(d.Rows(), d.Cols())
	if err != nil {
		return nil, err
	}
	for r := 0; r < d.Rows(); r++ {
		for c := 0; c < d.Cols(); c++ {
			out.Set(r, c, math.Hypot(gx.At(r, c), gy.At(r, c)))
		}
	}
	return out, nil
}
