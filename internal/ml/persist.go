package ml

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"elevprivacy/internal/ml/linalg"
)

// Model persistence: a tiny container format shared by the classifiers.
// A file is a JSON header (model kind + config) followed by raw float64
// parameter blocks, so a trained attack can be saved once and reloaded
// without retraining.
//
// Layout:
//
//	magic "ELPV" | uint32 header length | header JSON |
//	uint32 block count | per block: uint64 length | float64 values (LE)

const persistMagic = "ELPV"

// ErrMalformedModel marks a model file whose structure is invalid: bad
// magic, an implausible or truncated length, or a header whose dimensions
// disagree with its parameter blocks. I/O failures are not wrapped in it.
var ErrMalformedModel = errors.New("ml: malformed model file")

// Header identifies the serialized model.
type Header struct {
	// Kind is the model type ("cnn", "mlp", "svm").
	Kind string `json:"kind"`
	// Config is the model's own configuration, marshaled by the caller.
	Config json.RawMessage `json:"config"`
}

// WriteModel serializes a header plus parameter blocks.
func WriteModel(w io.Writer, h Header, blocks ...[]float64) error {
	if h.Kind == "" {
		return fmt.Errorf("ml: empty model kind")
	}
	hdr, err := json.Marshal(h)
	if err != nil {
		return fmt.Errorf("ml: marshaling header: %w", err)
	}
	if _, err := io.WriteString(w, persistMagic); err != nil {
		return fmt.Errorf("ml: writing magic: %w", err)
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(hdr))); err != nil {
		return fmt.Errorf("ml: writing header length: %w", err)
	}
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("ml: writing header: %w", err)
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(blocks))); err != nil {
		return fmt.Errorf("ml: writing block count: %w", err)
	}
	for i, block := range blocks {
		if err := binary.Write(w, binary.LittleEndian, uint64(len(block))); err != nil {
			return fmt.Errorf("ml: writing block %d length: %w", i, err)
		}
		buf := make([]byte, 8*len(block))
		for j, v := range block {
			binary.LittleEndian.PutUint64(buf[8*j:], math.Float64bits(v))
		}
		if _, err := w.Write(buf); err != nil {
			return fmt.Errorf("ml: writing block %d: %w", i, err)
		}
	}
	return nil
}

// RowBlocks exposes a matrix as per-row parameter blocks (shared views, not
// copies) for WriteModel, keeping the on-disk layout of models that
// historically saved one block per row.
func RowBlocks(m *linalg.Matrix) [][]float64 {
	return m.RowSlices()
}

// MatrixFromBlocks reassembles row blocks read by ReadModel into a matrix.
// Every block must have cols values; they are checked before the matrix is
// allocated, so its size is bounded by the values actually read.
func MatrixFromBlocks(blocks [][]float64, cols int) (*linalg.Matrix, error) {
	if len(blocks) == 0 {
		return nil, fmt.Errorf("%w: no blocks", ErrMalformedModel)
	}
	for i, b := range blocks {
		if len(b) != cols || cols < 1 {
			return nil, fmt.Errorf("%w: block %d has %d values, want %d", ErrMalformedModel, i, len(b), cols)
		}
	}
	m := linalg.NewMatrix(len(blocks), cols)
	for i, b := range blocks {
		copy(m.Row(i), b)
	}
	return m, nil
}

// ParamCount returns the number of parameters of a model whose blocks are
// the given shapes: the sum over shapes of the product of their dimensions.
// A dimension below 1 or a count that overflows int is an
// ErrMalformedModel, so a loader can check a header's dimensions against
// the parameters read before it allocates from them.
func ParamCount(shapes ...[]int) (int, error) {
	total := 0
	for _, shape := range shapes {
		n := 1
		for _, d := range shape {
			if d < 1 || n > math.MaxInt/d {
				return 0, fmt.Errorf("%w: dimensions %v", ErrMalformedModel, shape)
			}
			n *= d
		}
		if total > math.MaxInt-n {
			return 0, fmt.Errorf("%w: parameter count overflows", ErrMalformedModel)
		}
		total += n
	}
	return total, nil
}

// maxBlockLen bounds a parameter block read from disk (64M values = 512 MB),
// protecting against corrupt headers.
const maxBlockLen = 64 << 20

// readChunk is how many values readFloats reads at a time.
const readChunk = 8 << 10

// ReadModel parses a serialized model, returning the header and blocks.
// Blocks are read in bounded chunks, so a declared length allocates only
// as far as the bytes present back it.
func ReadModel(r io.Reader) (Header, [][]float64, error) {
	var h Header
	magic := make([]byte, len(persistMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return h, nil, readErr("magic", err)
	}
	if !bytes.Equal(magic, []byte(persistMagic)) {
		return h, nil, fmt.Errorf("%w: magic %q", ErrMalformedModel, magic)
	}
	var hdrLen uint32
	if err := binary.Read(r, binary.LittleEndian, &hdrLen); err != nil {
		return h, nil, readErr("header length", err)
	}
	if hdrLen > 1<<20 {
		return h, nil, fmt.Errorf("%w: implausible header length %d", ErrMalformedModel, hdrLen)
	}
	hdr := make([]byte, hdrLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return h, nil, readErr("header", err)
	}
	if err := json.Unmarshal(hdr, &h); err != nil {
		return h, nil, fmt.Errorf("%w: parsing header: %v", ErrMalformedModel, err)
	}

	var blockCount uint32
	if err := binary.Read(r, binary.LittleEndian, &blockCount); err != nil {
		return h, nil, readErr("block count", err)
	}
	if blockCount > 1<<16 {
		return h, nil, fmt.Errorf("%w: implausible block count %d", ErrMalformedModel, blockCount)
	}
	var blocks [][]float64
	buf := make([]byte, 8*readChunk)
	for i := uint32(0); i < blockCount; i++ {
		var n uint64
		if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
			return h, nil, readErr(fmt.Sprintf("block %d length", i), err)
		}
		if n > maxBlockLen {
			return h, nil, fmt.Errorf("%w: implausible block length %d", ErrMalformedModel, n)
		}
		block, err := readFloats(r, int(n), buf)
		if err != nil {
			return h, nil, readErr(fmt.Sprintf("block %d", i), err)
		}
		blocks = append(blocks, block)
	}
	return h, blocks, nil
}

// readFloats reads n little-endian float64 values through buf, growing the
// result only as values arrive.
func readFloats(r io.Reader, n int, buf []byte) ([]float64, error) {
	out := make([]float64, 0, min(n, readChunk))
	for len(out) < n {
		chunk := buf[:8*min(n-len(out), readChunk)]
		if _, err := io.ReadFull(r, chunk); err != nil {
			return nil, err
		}
		for j := 0; j < len(chunk); j += 8 {
			out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(chunk[j:])))
		}
	}
	return out, nil
}

// readErr reports a failed read of part: a truncated file is malformed,
// any other failure is I/O.
func readErr(part string, err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%w: truncated %s", ErrMalformedModel, part)
	}
	return fmt.Errorf("ml: reading %s: %w", part, err)
}
