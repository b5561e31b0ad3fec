//go:build !amd64

package dsp

func dot(a, b []float64) float64 { return dotGeneric(a, b) }

func updateDot(w, fx, x []float64, leak, muE float64) float64 {
	return updateDotGeneric(w, fx, x, leak, muE)
}

func update(w, fx []float64, leak, muE float64) { updateGeneric(w, fx, leak, muE) }
