// Package trace records named time series during simulation runs and
// renders them as CSV (for external plotting) or compact ASCII charts (for
// terminal inspection). Every figure-reproduction harness in this
// repository emits its data through a Recorder.
package trace

import (
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Series is one named time series.
type Series struct {
	Name string
	T    []float64 // seconds
	V    []float64

	// rec points at the owning recorder for interned series (nil on a
	// standalone Series); gen is the recorder cycle the series last
	// registered in. Together they let the first sample of each cycle
	// enter the series into the recorder's output order, so handles stay
	// valid across Recorder.Reset and output order always equals
	// first-sample order — exactly what per-sample Add produced before
	// handles existed.
	rec *Recorder
	gen uint64
}

// Add appends one sample.
func (s *Series) Add(t, v float64) {
	if s.rec != nil && s.gen != s.rec.gen {
		s.gen = s.rec.gen
		s.rec.order = append(s.rec.order, s.Name)
	}
	s.T = append(s.T, t)
	s.V = append(s.V, v)
}

// Len reports the number of samples.
func (s *Series) Len() int { return len(s.T) }

// Values returns the raw values slice (not a copy; callers must not
// mutate).
func (s *Series) Values() []float64 { return s.V }

// Window returns the values sampled in the half-open time interval
// [from, to). It allocates a fresh slice; hot callers should use
// WindowBounds and slice V directly.
func (s *Series) Window(from, to float64) []float64 {
	var out []float64
	for i, t := range s.T {
		if t >= from && t < to {
			out = append(out, s.V[i])
		}
	}
	return out
}

// WindowBounds returns the index range [lo, hi) of the samples in the
// half-open time interval [from, to), so callers can view s.V[lo:hi]
// without copying. Timestamps are appended by simulation runs in
// nondecreasing order; WindowBounds requires that and locates the range by
// binary search, matching Window's selection exactly on such series.
func (s *Series) WindowBounds(from, to float64) (lo, hi int) {
	lo = sort.SearchFloat64s(s.T, from)
	hi = lo + sort.SearchFloat64s(s.T[lo:], to)
	return lo, hi
}

// Recorder collects named series in insertion order. A Recorder is
// reusable: Reset truncates every series and starts a new registration
// cycle, after which it behaves exactly like a fresh recorder while
// recycling the sample buffers of any name that registers again.
type Recorder struct {
	//lint:sticky interned handles survive Reset by contract; Reset truncates each series through all
	series map[string]*Series
	order  []string
	all    []*Series // every series ever interned, for Reset
	gen    uint64    // current registration cycle, starts at 1
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{series: make(map[string]*Series), gen: 1}
}

// Handle interns the named series and returns it, creating it on first
// use. Hot loops call Handle once at setup and append through the returned
// pointer, skipping the per-sample map lookup that Add pays. Interning
// alone does not register the series: it enters the output order on its
// first sample of the cycle, so a pre-interned handle that never samples
// is invisible. Handles stay valid across Reset, keeping their grown
// buffers.
func (r *Recorder) Handle(name string) *Series {
	s, ok := r.series[name]
	if !ok {
		s = &Series{Name: name, rec: r}
		r.series[name] = s
		r.all = append(r.all, s)
	}
	return s
}

// HandleBytes is Handle keyed by a byte-slice view of the name. The
// steady-state path — name already interned — goes through the
// compiler-recognized m[string(b)] lookup form and allocates nothing;
// only a first encounter copies the bytes into a permanent string.
// Decoders that read names as views into an encoded trace rebuild
// recorders through it without per-series string garbage.
func (r *Recorder) HandleBytes(name []byte) *Series {
	if s, ok := r.series[string(name)]; ok {
		return s
	}
	return r.Handle(string(name))
}

// Add appends a sample to the named series, creating it on first use.
func (r *Recorder) Add(name string, t, v float64) {
	r.Handle(name).Add(t, v)
}

// Reset truncates every series (keeping capacity) and clears the
// registration order, returning the recorder to its freshly-constructed
// observable state. Handles obtained before the reset remain valid.
func (r *Recorder) Reset() {
	for _, s := range r.all {
		s.T = s.T[:0]
		s.V = s.V[:0]
	}
	r.order = r.order[:0]
	r.gen++
}

// Clone returns an independent deep copy: same series, same samples, same
// registration order, byte-identical CSV output. Batch drivers use it to
// retain a session-owned recorder's contents past the session's next run.
func (r *Recorder) Clone() *Recorder { return r.CloneInto(nil) }

// CloneInto deep-copies the recorder into dst and returns it, recycling
// dst's interned series and their sample buffers: once dst has seen a
// campaign's series names and sample counts, further CloneInto calls
// allocate nothing. A nil dst makes a fresh recorder (Clone semantics).
// dst must not be the recorder the copy is taken from, nor one still owned
// by a live session. The copy is independent of r and byte-identical in
// CSV output.
func (r *Recorder) CloneInto(dst *Recorder) *Recorder {
	if dst == nil {
		dst = NewRecorder()
	} else {
		dst.Reset()
	}
	for _, name := range r.order {
		s := r.series[name]
		cs := dst.Handle(name)
		cs.gen = dst.gen
		dst.order = append(dst.order, name)
		cs.T = append(cs.T[:0], s.T...)
		cs.V = append(cs.V[:0], s.V...)
	}
	return dst
}

// Series returns the named series, or nil if it holds no samples — an
// interned-but-empty handle is indistinguishable from a never-written
// name, exactly as before handles existed.
func (r *Recorder) Series(name string) *Series {
	s := r.series[name]
	if s == nil || len(s.T) == 0 {
		return nil
	}
	return s
}

// EachSeries calls f for every series holding samples, in registration
// order — the same series, in the same order, that WriteCSV emits. Unlike
// Names it allocates nothing, so encoders can walk a recorder per cycle
// without garbage.
func (r *Recorder) EachSeries(f func(s *Series)) {
	for _, name := range r.order {
		if s := r.series[name]; len(s.T) > 0 {
			f(s)
		}
	}
}

// Names returns the names of the series holding samples, in registration
// order. Pre-interned handles that never received a sample are omitted,
// so output layout does not depend on which handles a setup path interned.
func (r *Recorder) Names() []string {
	out := make([]string, 0, len(r.order))
	for _, name := range r.order {
		if len(r.series[name].T) > 0 {
			out = append(out, name)
		}
	}
	return out
}

// csvFlushAt bounds the encoder's in-memory buffer: rows accumulate until
// the buffer passes this size, then flush in one Write. Large enough that
// a whole scenario trace usually flushes once.
const csvFlushAt = 1 << 15

// WriteCSV emits the recorder in long format: series,t,value — one row per
// sample, series in insertion order. Rows are encoded with
// strconv.AppendFloat into a reused buffer (byte-identical to the fmt
// verbs %.6f / %.6g) and written in large chunks.
func (r *Recorder) WriteCSV(w io.Writer) error {
	buf := make([]byte, 0, csvFlushAt+256)
	buf = append(buf, "series,t,value\n"...)
	for _, name := range r.order {
		s := r.series[name]
		for i := range s.T {
			buf = append(buf, name...)
			buf = append(buf, ',')
			buf = strconv.AppendFloat(buf, s.T[i], 'f', 6, 64)
			buf = append(buf, ',')
			buf = strconv.AppendFloat(buf, s.V[i], 'g', 6, 64)
			buf = append(buf, '\n')
			if len(buf) >= csvFlushAt {
				if _, err := w.Write(buf); err != nil {
					return err
				}
				buf = buf[:0]
			}
		}
	}
	if len(buf) > 0 {
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// WriteWideCSV emits t plus one column per selected series, aligning rows
// on the union of timestamps (missing samples are left empty). Pass no
// names to include every series that holds samples.
func (r *Recorder) WriteWideCSV(w io.Writer, names ...string) error {
	if len(names) == 0 {
		names = r.Names()
	}
	// Dense column handles and cursors, resolved once: the inner loop
	// indexes slices instead of paying a string-keyed map lookup per cell.
	cols := make([]*Series, len(names))
	for i, name := range names {
		cols[i] = r.series[name] // nil for unknown names: empty column
	}
	stamps := map[float64]bool{}
	for _, s := range cols {
		if s != nil {
			for _, t := range s.T {
				stamps[t] = true
			}
		}
	}
	ts := make([]float64, 0, len(stamps))
	for t := range stamps {
		ts = append(ts, t)
	}
	sort.Float64s(ts)
	buf := make([]byte, 0, csvFlushAt+256)
	buf = append(buf, 't')
	for _, name := range names {
		buf = append(buf, ',')
		buf = append(buf, name...)
	}
	buf = append(buf, '\n')
	// Per-series cursor advances monotonically with sorted timestamps.
	cursors := make([]int, len(names))
	for _, t := range ts {
		buf = strconv.AppendFloat(buf, t, 'f', 6, 64)
		for ci, s := range cols {
			buf = append(buf, ',')
			if s == nil {
				continue
			}
			i := cursors[ci]
			for i < len(s.T) && s.T[i] < t {
				i++
			}
			// Several samples can share a timestamp; emit the
			// last one so none is silently dropped on later rows.
			// Exact match is intended: t is drawn from the same
			// stored values it is compared against.
			has := false
			v := 0.0
			//lint:allow floateq matching identical stored values, not computed ones
			for i < len(s.T) && s.T[i] == t {
				v = s.V[i]
				has = true
				i++
			}
			cursors[ci] = i
			if has {
				buf = strconv.AppendFloat(buf, v, 'g', 6, 64)
			}
		}
		buf = append(buf, '\n')
		if len(buf) >= csvFlushAt {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// Sparkline renders the series as a one-line ASCII chart of the given
// width, downsampling by bucket means. It returns "" for an empty series.
func Sparkline(s *Series, width int) string {
	if s == nil || len(s.V) == 0 || width <= 0 {
		return ""
	}
	levels := []rune("▁▂▃▄▅▆▇█")
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range s.V {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	span := hi - lo
	var b strings.Builder
	n := len(s.V)
	for i := 0; i < width; i++ {
		start := i * n / width
		end := (i + 1) * n / width
		if end <= start {
			end = start + 1
		}
		if start >= n {
			break
		}
		sum := 0.0
		cnt := 0
		for j := start; j < end && j < n; j++ {
			sum += s.V[j]
			cnt++
		}
		mean := sum / float64(cnt)
		idx := 0
		if span > 0 {
			idx = int((mean - lo) / span * float64(len(levels)-1))
		}
		if idx < 0 {
			idx = 0
		}
		if idx >= len(levels) {
			idx = len(levels) - 1
		}
		b.WriteRune(levels[idx])
	}
	return b.String()
}
