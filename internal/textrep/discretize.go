// Package textrep implements the paper's text-like representation of
// elevation profiles (§III-B1, Figs. 5-6): elevation signals are
// discretized, each unique discrete value is mapped to a fixed-length
// word over an alphabet, signals become texts, and a vocabulary of
// word-aligned n-grams turns each text into a normalized bag-of-words
// feature vector.
package textrep

import "math"

// Discretizer maps a raw elevation value onto its discrete bucket.
type Discretizer func(float64) float64

// FloorDiscretizer is the paper's f(e) = ⌊e⌋, used for the densely sampled
// user-specific dataset where 1 m resolution suffices.
func FloorDiscretizer(e float64) float64 { return math.Floor(e) }

// PrecisionDiscretizer returns the paper's f(e) = ⌊e·10^d⌋ / 10^d family,
// with d = 3 used for the sparse mined datasets.
func PrecisionDiscretizer(digits int) Discretizer {
	scale := math.Pow(10, float64(digits))
	return func(e float64) float64 {
		return math.Floor(e*scale) / scale
	}
}

// WordSize computes the paper's rule w = ⌈log_l c⌉: the number of alphabet
// letters needed to give each of c unique values a distinct word. c < 2
// still requires one letter.
func WordSize(alphabetLen, uniqueValues int) int {
	if alphabetLen < 2 || uniqueValues <= 1 {
		return 1
	}
	w := int(math.Ceil(math.Log(float64(uniqueValues)) / math.Log(float64(alphabetLen))))
	if w < 1 {
		w = 1
	}
	// Guard against floating-point shortfall (e.g. log(676)/log(26) = 2-ε).
	for pow(alphabetLen, w) < uniqueValues {
		w++
	}
	return w
}

// pow is integer exponentiation with saturation.
func pow(base, exp int) int {
	out := 1
	for i := 0; i < exp; i++ {
		if out > math.MaxInt/base {
			return math.MaxInt
		}
		out *= base
	}
	return out
}
