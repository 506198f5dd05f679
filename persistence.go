package elevprivacy

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"elevprivacy/internal/imagerep"
	"elevprivacy/internal/ml"
	"elevprivacy/internal/ml/cnn"
	"elevprivacy/internal/ml/mlp"
	"elevprivacy/internal/ml/svm"
	"elevprivacy/internal/textrep"
)

// Attack persistence: a trained attack is an envelope (representation
// state + class labels) followed by the classifier's own serialized form,
// so an adversary — or an auditor — trains once and reuses the model.
//
// Layout: magic "ELPA" | uint32 envelope length | envelope JSON | model.

const attackMagic = "ELPA"

// maxEnvelopeBytes bounds the length prefix read back from disk. The
// envelope is a few KB of JSON in practice; anything past this is a corrupt
// or hostile file, and the bound keeps a flipped length byte from driving a
// multi-GB allocation before the payload is even read.
const maxEnvelopeBytes = 64 << 20

// FormatError describes a malformed attack file: wrong magic, an
// implausible envelope length, a truncated envelope, an envelope that is
// not valid JSON or lacks a field, or a malformed model after it. Callers
// distinguish corrupt files from I/O failures with errors.As.
type FormatError struct {
	What   string // which part of the file is malformed
	Detail string // what was found there
}

func (e *FormatError) Error() string {
	return fmt.Sprintf("elevprivacy: malformed attack file: %s: %s", e.What, e.Detail)
}

// textEnvelope persists a TextAttack's non-model state.
type textEnvelope struct {
	Kind     ClassifierKind    `json:"kind"`
	Labels   []string          `json:"labels"`
	Pipeline *textrep.Pipeline `json:"pipeline"`
}

// imageEnvelope persists an ImageAttack's non-model state.
type imageEnvelope struct {
	Labels []string        `json:"labels"`
	Render imagerep.Config `json:"render"`
}

// writeEnvelope writes the magic and the length-prefixed JSON envelope.
func writeEnvelope(w io.Writer, v any) error {
	env, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("elevprivacy: marshaling envelope: %w", err)
	}
	if _, err := io.WriteString(w, attackMagic); err != nil {
		return fmt.Errorf("elevprivacy: writing magic: %w", err)
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(env))); err != nil {
		return fmt.Errorf("elevprivacy: writing envelope length: %w", err)
	}
	if _, err := w.Write(env); err != nil {
		return fmt.Errorf("elevprivacy: writing envelope: %w", err)
	}
	return nil
}

// readEnvelope parses the magic and envelope into v. The length prefix
// comes from the file, so it is never trusted: the magic is verified, the
// length bounded by maxEnvelopeBytes, and the envelope read as its bytes
// arrive, so allocation tracks the bytes present rather than the prefix.
// Malformed files surface as *FormatError; I/O failures pass through.
func readEnvelope(r io.Reader, v any) error {
	header := make([]byte, len(attackMagic)+4)
	if n, err := io.ReadFull(r, header); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return &FormatError{What: "header",
				Detail: fmt.Sprintf("truncated at %d of %d bytes", n, len(header))}
		}
		return fmt.Errorf("elevprivacy: reading header: %w", err)
	}
	if magic := header[:len(attackMagic)]; string(magic) != attackMagic {
		return &FormatError{What: "magic",
			Detail: fmt.Sprintf("%q, want %q", magic, attackMagic)}
	}
	n := binary.LittleEndian.Uint32(header[len(attackMagic):])
	if n > maxEnvelopeBytes {
		return &FormatError{What: "envelope length",
			Detail: fmt.Sprintf("%d exceeds the %d-byte bound", n, maxEnvelopeBytes)}
	}
	env, err := io.ReadAll(io.LimitReader(r, int64(n)))
	if err != nil {
		return fmt.Errorf("elevprivacy: reading envelope: %w", err)
	}
	if len(env) < int(n) {
		return &FormatError{What: "envelope",
			Detail: fmt.Sprintf("truncated at %d of %d bytes", len(env), n)}
	}
	if err := json.Unmarshal(env, v); err != nil {
		return &FormatError{What: "envelope JSON", Detail: err.Error()}
	}
	return nil
}

// Save serializes the trained text attack. SVM and MLP classifiers are
// supported; the random forest has no compact serial form here.
func (a *TextAttack) Save(w io.Writer) error {
	var kind ClassifierKind
	switch a.model.(type) {
	case *svm.SVM:
		kind = ClassifierSVM
	case *mlp.MLP:
		kind = ClassifierMLP
	default:
		return fmt.Errorf("elevprivacy: saving %T is not supported (use svm or mlp)", a.model)
	}
	if err := writeEnvelope(w, textEnvelope{
		Kind:     kind,
		Labels:   a.labels.Names(),
		Pipeline: a.pipeline,
	}); err != nil {
		return err
	}
	switch m := a.model.(type) {
	case *svm.SVM:
		return m.Save(w)
	case *mlp.MLP:
		return m.Save(w)
	}
	return nil // unreachable
}

// LoadTextAttack reconstructs a saved text attack.
func LoadTextAttack(r io.Reader) (*TextAttack, error) {
	var env textEnvelope
	if err := readEnvelope(r, &env); err != nil {
		return nil, err
	}
	if env.Pipeline == nil {
		return nil, &FormatError{What: "pipeline", Detail: "missing"}
	}
	enc, err := ml.NewLabelEncoder(env.Labels)
	if err != nil {
		return nil, &FormatError{What: "labels", Detail: err.Error()}
	}

	var model ml.Classifier
	switch env.Kind {
	case ClassifierSVM:
		model, err = svm.Load(r)
	case ClassifierMLP:
		model, err = mlp.Load(r)
	default:
		return nil, &FormatError{What: "classifier kind", Detail: fmt.Sprintf("%q", env.Kind)}
	}
	if err != nil {
		return nil, modelError(err)
	}
	return &TextAttack{pipeline: env.Pipeline, labels: enc, model: model}, nil
}

// Save serializes the trained image attack (render config + CNN).
func (a *ImageAttack) Save(w io.Writer) error {
	if err := writeEnvelope(w, imageEnvelope{
		Labels: a.labels.Names(),
		Render: a.render,
	}); err != nil {
		return err
	}
	return a.model.Save(w)
}

// LoadImageAttack reconstructs a saved image attack.
func LoadImageAttack(r io.Reader) (*ImageAttack, error) {
	var env imageEnvelope
	if err := readEnvelope(r, &env); err != nil {
		return nil, err
	}
	enc, err := ml.NewLabelEncoder(env.Labels)
	if err != nil {
		return nil, &FormatError{What: "labels", Detail: err.Error()}
	}
	model, err := cnn.Load(r)
	if err != nil {
		return nil, modelError(err)
	}
	if model.Classes() != enc.Len() {
		return nil, &FormatError{What: "model",
			Detail: fmt.Sprintf("%d classes, labels have %d", model.Classes(), enc.Len())}
	}
	return &ImageAttack{render: env.Render, labels: enc, model: model}, nil
}

// modelError reports a malformed model as a *FormatError and passes I/O
// failures through.
func modelError(err error) error {
	if errors.Is(err, ml.ErrMalformedModel) {
		return &FormatError{What: "model", Detail: err.Error()}
	}
	return err
}
