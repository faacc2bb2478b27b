// Package colfmt is the columnar binary trace format for fleet-scale
// campaigns. A trace.Recorder rendered as CSV costs ~25 bytes per sample;
// a 1M-run campaign retained that way does not fit in RAM. This format
// stores each series as two compressed columns and typically shrinks a
// closed-loop control trace by an order of magnitude, with bit-exact
// float64 round-trips (NaN payloads, subnormals and ±Inf included) —
// cmd/trace2csv converts it back to CSV byte-identical to
// trace.Recorder.WriteCSV.
//
// # Layout
//
// All integers are unsigned varints (encoding/binary Uvarint). A file is
// a 4-byte magic followed by any number of self-delimiting run records,
// so writers append one run per campaign cycle without buffering the
// campaign and readers skip runs without decoding their columns:
//
//	file   := "ATC1" run*
//	run    := 'R' nSeries series*
//	series := nameLen name nSamples tLen tcol vLen vcol
//
// Series appear in the recorder's registration order — the order WriteCSV
// emits — so decoding rebuilds a byte-identical recorder.
//
// # Column codecs
//
// Both codecs operate on IEEE-754 bit patterns, never on float values, so
// every float64 — any NaN payload, -0, subnormals, ±Inf — round-trips
// exactly.
//
// tcol is the timestamp column: double-delta coding of the bit patterns
// as wrapping 64-bit integers, each second difference zigzag-varint
// encoded. Simulation timestamps step by a near-constant period, and
// within one binade constant float steps are constant bit-pattern steps,
// so the second difference is almost always zero — one byte per sample,
// with a short burst only when the exponent rolls over.
//
// vcol is the value column: each value's bit pattern XORed with its
// predecessor's (first predecessor 0), varint encoded. Equal neighbors —
// flags, counters, settled utilizations — cost one byte; close neighbors
// share sign, exponent and leading mantissa bits, zeroing the varint's
// high bytes.
package colfmt

import "fmt"

// magic identifies a columnar trace file: AutoE2E Trace, Columnar, v1.
const magic = "ATC1"

// MagicLen is the length of the file magic AppendMagic writes.
const MagicLen = len(magic)

// AppendMagic appends the 4-byte file magic onto dst and returns the
// extended buffer. Streaming producers — the serve HTTP path writes colfmt
// bodies straight from request buffers — use it to open a well-formed
// stream before the first AppendRun record.
//
//lint:certify noalloc appends into a caller-grown buffer
func AppendMagic(dst []byte) []byte { return append(dst, magic...) }

// runMarker starts every run record; future record kinds get new markers.
const runMarker = 'R'

// corruptf builds the uniform decode error.
func corruptf(off int, format string, args ...any) error {
	return fmt.Errorf("colfmt: corrupt trace at byte %d: %s", off, fmt.Sprintf(format, args...))
}

// zigzag maps a signed difference onto the unsigned varint domain so
// small negative values stay short.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
