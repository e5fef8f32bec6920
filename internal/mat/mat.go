// Package mat provides the small dense linear-algebra substrate used by the
// neural models in this repository. It is deliberately minimal: float64
// vectors and row-major matrices with the handful of operations the models
// need, written for clarity and determinism rather than BLAS-level speed.
package mat

import (
	"fmt"
	"math"
	"math/rand"
)

// Vec is a dense float64 vector.
type Vec []float64

// NewVec returns a zero vector of length n.
func NewVec(n int) Vec { return make(Vec, n) }

// Clone returns a copy of v.
func (v Vec) Clone() Vec {
	out := make(Vec, len(v))
	copy(out, v)
	return out
}

// Zero sets every element of v to zero.
func (v Vec) Zero() {
	for i := range v {
		v[i] = 0
	}
}

// Add adds u into v element-wise. Panics if lengths differ.
func (v Vec) Add(u Vec) {
	if len(v) != len(u) {
		panic(fmt.Sprintf("mat: Add length mismatch %d vs %d", len(v), len(u)))
	}
	for i := range v {
		v[i] += u[i]
	}
}

// AddScaled adds s*u into v element-wise.
func (v Vec) AddScaled(s float64, u Vec) {
	if len(v) != len(u) {
		panic(fmt.Sprintf("mat: AddScaled length mismatch %d vs %d", len(v), len(u)))
	}
	for i := range v {
		v[i] += s * u[i]
	}
}

// Scale multiplies every element of v by s.
func (v Vec) Scale(s float64) {
	for i := range v {
		v[i] *= s
	}
}

// Dot returns the inner product of v and u.
func (v Vec) Dot(u Vec) float64 {
	if len(v) != len(u) {
		panic(fmt.Sprintf("mat: Dot length mismatch %d vs %d", len(v), len(u)))
	}
	var s float64
	for i := range v {
		s += v[i] * u[i]
	}
	return s
}

// Norm returns the Euclidean norm of v.
func (v Vec) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Sum returns the sum of the elements of v.
func (v Vec) Sum() float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of v, or 0 for an empty vector.
func (v Vec) Mean() float64 {
	if len(v) == 0 {
		return 0
	}
	return v.Sum() / float64(len(v))
}

// Max returns the maximum element and its index. Panics on empty input.
func (v Vec) Max() (float64, int) {
	if len(v) == 0 {
		panic("mat: Max of empty vector")
	}
	best, at := v[0], 0
	for i, x := range v {
		if x > best {
			best, at = x, i
		}
	}
	return best, at
}

// ArgMax returns the index of the maximum element.
func (v Vec) ArgMax() int {
	_, i := v.Max()
	return i
}

// Hadamard multiplies v element-wise by u in place.
func (v Vec) Hadamard(u Vec) {
	if len(v) != len(u) {
		panic(fmt.Sprintf("mat: Hadamard length mismatch %d vs %d", len(v), len(u)))
	}
	for i := range v {
		v[i] *= u[i]
	}
}

// Concat returns the concatenation of the given vectors as a new vector.
func Concat(vs ...Vec) Vec {
	n := 0
	for _, v := range vs {
		n += len(v)
	}
	out := make(Vec, 0, n)
	for _, v := range vs {
		out = append(out, v...)
	}
	return out
}

// Softmax returns the softmax of v as a new vector, computed stably.
func Softmax(v Vec) Vec {
	out := make(Vec, len(v))
	if len(v) == 0 {
		return out
	}
	max, _ := v.Max()
	var z float64
	for i, x := range v {
		e := math.Exp(x - max)
		out[i] = e
		z += e
	}
	for i := range out {
		out[i] /= z
	}
	return out
}

// LogSumExp returns log(sum_i exp(v_i)) computed stably.
func LogSumExp(v Vec) float64 {
	if len(v) == 0 {
		return math.Inf(-1)
	}
	max, _ := v.Max()
	if math.IsInf(max, -1) {
		return max
	}
	var s float64
	for _, x := range v {
		s += math.Exp(x - max)
	}
	return max + math.Log(s)
}

// Sigmoid returns 1/(1+exp(-x)).
func Sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

// Tanh is math.Tanh, re-exported so models need only this package.
func Tanh(x float64) float64 { return math.Tanh(x) }

// CosineSimilarity returns the cosine of the angle between a and b, or 0 if
// either has zero norm.
func CosineSimilarity(a, b Vec) float64 {
	na, nb := a.Norm(), b.Norm()
	if na == 0 || nb == 0 {
		return 0
	}
	return a.Dot(b) / (na * nb)
}

// Mat is a dense row-major matrix.
type Mat struct {
	Rows, Cols int
	Data       Vec // len Rows*Cols, Data[r*Cols+c]
}

// NewMat returns a zero matrix with the given shape.
func NewMat(rows, cols int) *Mat {
	if rows < 0 || cols < 0 {
		panic("mat: negative dimensions")
	}
	return &Mat{Rows: rows, Cols: cols, Data: make(Vec, rows*cols)}
}

// NewMatFrom builds a matrix from the given rows, which must all share a length.
func NewMatFrom(rows [][]float64) *Mat {
	if len(rows) == 0 {
		return NewMat(0, 0)
	}
	m := NewMat(len(rows), len(rows[0]))
	for r, row := range rows {
		if len(row) != m.Cols {
			panic("mat: ragged rows")
		}
		copy(m.Row(r), row)
	}
	return m
}

// At returns the element at row r, column c.
func (m *Mat) At(r, c int) float64 { return m.Data[r*m.Cols+c] }

// Set assigns the element at row r, column c.
func (m *Mat) Set(r, c int, x float64) { m.Data[r*m.Cols+c] = x }

// Row returns row r as a slice sharing m's storage.
func (m *Mat) Row(r int) Vec { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Zero sets every element of m to zero.
func (m *Mat) Zero() { m.Data.Zero() }

// Add adds o into m element-wise.
func (m *Mat) Add(o *Mat) {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		panic("mat: Add shape mismatch")
	}
	m.Data.Add(o.Data)
}

// AddScaled adds s*o into m element-wise.
func (m *Mat) AddScaled(s float64, o *Mat) {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		panic("mat: AddScaled shape mismatch")
	}
	m.Data.AddScaled(s, o.Data)
}

// Scale multiplies every element of m by s.
func (m *Mat) Scale(s float64) { m.Data.Scale(s) }

// MulVec returns m·v as a new vector of length m.Rows.
func (m *Mat) MulVec(v Vec) Vec {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("mat: MulVec shape mismatch %dx%d · %d", m.Rows, m.Cols, len(v)))
	}
	out := make(Vec, m.Rows)
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		var s float64
		for c, x := range row {
			s += x * v[c]
		}
		out[r] = s
	}
	return out
}

// MulVecT returns mᵀ·v as a new vector of length m.Cols.
func (m *Mat) MulVecT(v Vec) Vec {
	if len(v) != m.Rows {
		panic(fmt.Sprintf("mat: MulVecT shape mismatch %dx%d ᵀ· %d", m.Rows, m.Cols, len(v)))
	}
	out := make(Vec, m.Cols)
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		vr := v[r]
		if vr == 0 {
			continue
		}
		for c, x := range row {
			out[c] += x * vr
		}
	}
	return out
}

// AddOuter adds s * a·bᵀ into m, where a has length m.Rows and b length m.Cols.
// It is the rank-1 accumulation used by gradient updates.
func (m *Mat) AddOuter(s float64, a, b Vec) {
	if len(a) != m.Rows || len(b) != m.Cols {
		panic("mat: AddOuter shape mismatch")
	}
	for r := 0; r < m.Rows; r++ {
		sa := s * a[r]
		if sa == 0 {
			continue
		}
		row := m.Row(r)
		for c := range row {
			row[c] += sa * b[c]
		}
	}
}

// RandInit fills m with uniform values in [-scale, scale] drawn from rng.
func (m *Mat) RandInit(rng *rand.Rand, scale float64) {
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * scale
	}
}

// XavierInit fills m with the Glorot uniform initialization for a layer with
// the given fan-in and fan-out.
func (m *Mat) XavierInit(rng *rand.Rand, fanIn, fanOut int) {
	scale := math.Sqrt(6.0 / float64(fanIn+fanOut))
	m.RandInit(rng, scale)
}
