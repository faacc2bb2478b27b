package colfmt

import (
	"encoding/binary"
	"io"
	"math"

	"github.com/autoe2e/autoe2e/internal/trace"
)

// appendTimeColumn encodes timestamps by double-delta coding their bit
// patterns (see the package comment) and returns the extended buffer.
func appendTimeColumn(dst []byte, ts []float64) []byte {
	var prev, prevDelta uint64
	for _, t := range ts {
		bits := math.Float64bits(t)
		delta := bits - prev
		dst = binary.AppendUvarint(dst, zigzag(int64(delta-prevDelta)))
		prev, prevDelta = bits, delta
	}
	return dst
}

// appendValueColumn encodes values by XORing each bit pattern with its
// predecessor's and returns the extended buffer.
func appendValueColumn(dst []byte, vs []float64) []byte {
	var prev uint64
	for _, v := range vs {
		bits := math.Float64bits(v)
		dst = binary.AppendUvarint(dst, bits^prev)
		prev = bits
	}
	return dst
}

// AppendRun encodes one run record — the recorder's current contents, in
// registration order — onto dst and returns the extended buffer. It is
// the core encoder: once dst has grown to a campaign's working size,
// appending further runs allocates nothing. The file magic is not
// included; see Writer for whole files.
//
//lint:certify noalloc appends into a caller-grown buffer; the series closures stay on the stack
func AppendRun(dst []byte, rec *trace.Recorder) []byte {
	nSeries := 0
	rec.EachSeries(func(*trace.Series) { nSeries++ })
	dst = append(dst, runMarker)
	dst = binary.AppendUvarint(dst, uint64(nSeries))
	rec.EachSeries(func(s *trace.Series) {
		dst = binary.AppendUvarint(dst, uint64(len(s.Name)))
		dst = append(dst, s.Name...)
		dst = binary.AppendUvarint(dst, uint64(len(s.T)))

		// Encode each column onto the end of dst, then insert its byte
		// length in front by shifting — columns are long compared to the
		// 1-2 byte shift distance, and it keeps one buffer, no scratch.
		dst = appendColumnWithLen(dst, s.T, appendTimeColumn)
		dst = appendColumnWithLen(dst, s.V, appendValueColumn)
	})
	return dst
}

// appendColumnWithLen appends encode(col) prefixed with its varint byte
// length, using only the tail of dst as scratch.
func appendColumnWithLen(dst []byte, col []float64, encode func([]byte, []float64) []byte) []byte {
	start := len(dst)
	dst = encode(dst, col)
	colLen := len(dst) - start
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(colLen))
	dst = append(dst, lenBuf[:n]...) // grow by the shift distance
	copy(dst[start+n:], dst[start:start+colLen])
	copy(dst[start:], lenBuf[:n])
	return dst
}

// Writer streams runs into an io.Writer, one self-delimiting record per
// WriteRun call, never holding more than one encoded run in memory. The
// magic header is written before the first run. Writer is sticky on
// error: after any write failure every call returns that first error.
type Writer struct {
	w       io.Writer
	scratch []byte
	started bool
	err     error
}

// NewWriter returns a Writer appending to w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// WriteRun appends one run record with the recorder's current contents.
func (w *Writer) WriteRun(rec *trace.Recorder) error {
	if w.err != nil {
		return w.err
	}
	w.scratch = w.scratch[:0]
	if !w.started {
		w.scratch = append(w.scratch, magic...)
	}
	w.scratch = AppendRun(w.scratch, rec)
	if _, err := w.w.Write(w.scratch); err != nil {
		w.err = err
		return err
	}
	w.started = true
	return nil
}

// Err returns the first write error, if any.
func (w *Writer) Err() error { return w.err }
