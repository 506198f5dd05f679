// Package spectral implements the paper's rejected baseline: classifying
// elevation profiles from simple spectral features. The paper's abstract
// establishes that such features "are insufficient", which motivates the
// text-like and image-like representations; this package reproduces that
// comparison point with a from-scratch FFT.
package spectral

import (
	"fmt"
	"math"
	"math/bits"
)

// FFT computes the in-place radix-2 Cooley-Tukey fast Fourier transform of
// the complex sequence, iteratively with a bit-reversal permutation. The
// length must be a power of two.
func FFT(data []complex128) error {
	n := len(data)
	if n == 0 {
		return fmt.Errorf("spectral: empty input")
	}
	if n&(n-1) != 0 {
		return fmt.Errorf("spectral: length %d is not a power of two", n)
	}

	// Bit-reversal permutation.
	shift := 64 - uint(bits.Len(uint(n-1)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			data[i], data[j] = data[j], data[i]
		}
	}

	// Butterflies.
	for size := 2; size <= n; size *= 2 {
		angle := -(2 * math.Pi / float64(size))
		wStep := complex(math.Cos(angle), math.Sin(angle))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			half := size / 2
			for k := 0; k < half; k++ {
				even := data[start+k]
				odd := data[start+k+half] * w
				data[start+k] = even + odd
				data[start+k+half] = even - odd
				w *= wStep
			}
		}
	}
	return nil
}

// PowerSpectrum returns the one-sided power spectrum of a real signal of
// power-of-two length: |X_k|² for k in [0, n/2].
func PowerSpectrum(signal []float64) ([]float64, error) {
	n := len(signal)
	buf := make([]complex128, n)
	for i, v := range signal {
		buf[i] = complex(v, 0)
	}
	if err := FFT(buf); err != nil {
		return nil, err
	}
	out := make([]float64, n/2+1)
	for k := range out {
		re := real(buf[k])
		im := imag(buf[k])
		out[k] = re*re + im*im
	}
	return out, nil
}

// HannWindow multiplies the signal in place by the Hann window, the
// standard taper before estimating a spectrum.
func HannWindow(signal []float64) {
	n := len(signal)
	if n < 2 {
		return
	}
	for i := range signal {
		w := 0.5 * (1 - math.Cos(2*math.Pi*float64(i)/float64(n-1)))
		signal[i] *= w
	}
}

// nextPow2 returns the smallest power of two >= n (minimum 2).
func nextPow2(n int) int {
	p := 2
	for p < n {
		p *= 2
	}
	return p
}
