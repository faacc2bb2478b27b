package trace

import (
	"io"
	"strings"
	"testing"
)

func TestRecorderBasics(t *testing.T) {
	r := NewRecorder()
	r.Add("u0", 0, 0.5)
	r.Add("u0", 1, 0.6)
	r.Add("u1", 0, 0.2)
	s := r.Series("u0")
	if s == nil || s.Len() != 2 || s.V[1] != 0.6 {
		t.Fatalf("u0 series wrong: %+v", s)
	}
	if r.Series("missing") != nil {
		t.Error("missing series not nil")
	}
	names := r.Names()
	if len(names) != 2 || names[0] != "u0" || names[1] != "u1" {
		t.Errorf("Names = %v, want insertion order", names)
	}
}

func TestSeriesWindow(t *testing.T) {
	s := &Series{}
	for i := 0; i < 10; i++ {
		s.Add(float64(i), float64(i)*10)
	}
	w := s.Window(3, 6)
	if len(w) != 3 || w[0] != 30 || w[2] != 50 {
		t.Errorf("Window = %v", w)
	}
	if got := s.Window(100, 200); len(got) != 0 {
		t.Errorf("empty window = %v", got)
	}
}

func TestSeriesWindowBounds(t *testing.T) {
	s := &Series{}
	for i := 0; i < 10; i++ {
		s.Add(float64(i), float64(i)*10)
	}
	lo, hi := s.WindowBounds(3, 6)
	if lo != 3 || hi != 6 {
		t.Fatalf("WindowBounds(3, 6) = [%d, %d), want [3, 6)", lo, hi)
	}
	if lo, hi := s.WindowBounds(100, 200); lo != hi {
		t.Errorf("empty window bounds = [%d, %d), want empty", lo, hi)
	}
	if lo, hi := s.WindowBounds(-5, 0.5); lo != 0 || hi != 1 {
		t.Errorf("leading window bounds = [%d, %d), want [0, 1)", lo, hi)
	}
}

// TestWindowBoundsMatchesWindowProperty checks the contract that on
// time-sorted series — the only kind simulation runs produce — slicing by
// WindowBounds selects exactly the samples Window copies, including at
// duplicate timestamps and interval edges.
func TestWindowBoundsMatchesWindowProperty(t *testing.T) {
	s := &Series{}
	// Nondecreasing timestamps with duplicates.
	times := []float64{0, 0, 0.5, 1, 1, 1, 2.25, 3, 3, 4.5}
	for i, ts := range times {
		s.Add(ts, float64(i))
	}
	for _, iv := range [][2]float64{{0, 5}, {0, 0}, {1, 1}, {0.5, 3}, {1, 3}, {-1, 0.25}, {3, 10}, {4.5, 4.5}, {5, 9}} {
		want := s.Window(iv[0], iv[1])
		lo, hi := s.WindowBounds(iv[0], iv[1])
		got := s.V[lo:hi]
		if len(got) != len(want) {
			t.Fatalf("[%v, %v): bounds select %v, Window selects %v", iv[0], iv[1], got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("[%v, %v): bounds select %v, Window selects %v", iv[0], iv[1], got, want)
			}
		}
	}
}

func TestWriteCSV(t *testing.T) {
	r := NewRecorder()
	r.Add("a", 0, 1)
	r.Add("a", 1, 2)
	r.Add("b", 0, 3)
	var sb strings.Builder
	if err := r.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := "series,t,value\na,0.000000,1\na,1.000000,2\nb,0.000000,3\n"
	if got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}

func TestWriteWideCSV(t *testing.T) {
	r := NewRecorder()
	r.Add("a", 0, 1)
	r.Add("a", 2, 2)
	r.Add("b", 0, 3)
	r.Add("b", 1, 4)
	var sb strings.Builder
	if err := r.WriteWideCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if lines[0] != "t,a,b" {
		t.Errorf("header = %q", lines[0])
	}
	if len(lines) != 4 {
		t.Fatalf("rows = %d, want 4 (union of timestamps)", len(lines))
	}
	if !strings.HasPrefix(lines[2], "1.000000,,4") {
		t.Errorf("row at t=1 = %q, want empty cell for a", lines[2])
	}
}

func TestWriteWideCSVSubset(t *testing.T) {
	r := NewRecorder()
	r.Add("a", 0, 1)
	r.Add("b", 0, 2)
	var sb strings.Builder
	if err := r.WriteWideCSV(&sb, "b"); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "t,b\n") {
		t.Errorf("subset header wrong: %q", sb.String())
	}
}

func TestSparkline(t *testing.T) {
	s := &Series{}
	for i := 0; i < 100; i++ {
		s.Add(float64(i), float64(i))
	}
	line := Sparkline(s, 10)
	if len([]rune(line)) != 10 {
		t.Errorf("width = %d, want 10", len([]rune(line)))
	}
	runes := []rune(line)
	// Bucket means of a ramp rise monotonically; the first bucket is the
	// lowest level and the last is above the middle.
	if runes[0] != '▁' || runes[9] <= runes[0] {
		t.Errorf("ramp = %q, want rising", line)
	}
	for i := 1; i < len(runes); i++ {
		if runes[i] < runes[i-1] {
			t.Errorf("ramp not monotone: %q", line)
		}
	}
	if Sparkline(nil, 10) != "" || Sparkline(&Series{}, 10) != "" {
		t.Error("empty sparkline should be empty string")
	}
}

func TestSparklineConstant(t *testing.T) {
	s := &Series{}
	s.Add(0, 5)
	s.Add(1, 5)
	if line := Sparkline(s, 4); line == "" {
		t.Error("constant series produced empty sparkline")
	}
}

// failWriter errors after n successful writes.
type failWriter struct{ left int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.left <= 0 {
		return 0, io.ErrClosedPipe
	}
	w.left--
	return len(p), nil
}

func TestWriteCSVPropagatesErrors(t *testing.T) {
	// Enough samples to overflow the encoder's flush buffer several times,
	// so a writer that fails after the first chunk still sees the error.
	r := NewRecorder()
	for i := 0; i < 5000; i++ {
		r.Add("a", float64(i), float64(2*i))
	}
	if err := r.WriteCSV(&failWriter{left: 0}); err == nil {
		t.Error("first-chunk write error not propagated")
	}
	if err := r.WriteCSV(&failWriter{left: 1}); err == nil {
		t.Error("later-chunk write error not propagated")
	}
	if err := r.WriteWideCSV(&failWriter{left: 0}); err == nil {
		t.Error("wide first-chunk write error not propagated")
	}
	if err := r.WriteWideCSV(&failWriter{left: 1}); err == nil {
		t.Error("wide later-chunk write error not propagated")
	}
}

func TestWriteWideCSVDuplicateTimestamps(t *testing.T) {
	r := NewRecorder()
	r.Add("a", 0, 1)
	r.Add("a", 0, 2) // same timestamp: the last value wins, none dangle
	r.Add("a", 1, 3)
	var sb strings.Builder
	if err := r.WriteWideCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("rows = %v", lines)
	}
	if lines[1] != "0.000000,2" {
		t.Errorf("row at t=0 = %q, want last duplicate (2)", lines[1])
	}
	if lines[2] != "1.000000,3" {
		t.Errorf("row at t=1 = %q, want 3 (not dropped)", lines[2])
	}
}

func TestRecorderResetBehavesLikeFresh(t *testing.T) {
	r := NewRecorder()
	h := r.Handle("b")
	r.Add("a", 0, 1)
	h.Add(0, 2)
	r.Reset()
	if n := r.Names(); len(n) != 0 {
		t.Fatalf("Names after Reset = %v, want empty", n)
	}
	if r.Series("a") != nil {
		t.Fatal("Series(a) non-nil after Reset")
	}
	// The pre-Reset handle stays valid and re-registers on first use; a
	// different registration order this cycle must be honored.
	h.Add(1, 3)
	r.Add("a", 1, 4)
	var fresh, reused strings.Builder
	if err := r.WriteCSV(&reused); err != nil {
		t.Fatal(err)
	}
	f := NewRecorder()
	f.Add("b", 1, 3)
	f.Add("a", 1, 4)
	if err := f.WriteCSV(&fresh); err != nil {
		t.Fatal(err)
	}
	if fresh.String() != reused.String() {
		t.Fatalf("reset recorder CSV diverged:\nfresh:\n%s\nreused:\n%s", fresh.String(), reused.String())
	}
}

func TestPreInternedEmptySeriesInvisible(t *testing.T) {
	r := NewRecorder()
	r.Handle("never.sampled")
	r.Add("a", 0, 1)
	if got := r.Names(); len(got) != 1 || got[0] != "a" {
		t.Fatalf("Names = %v, want [a]", got)
	}
	if r.Series("never.sampled") != nil {
		t.Fatal("empty interned series visible through Series()")
	}
	var sb strings.Builder
	if err := r.WriteWideCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "never.sampled") {
		t.Fatalf("empty interned series leaked into wide CSV:\n%s", sb.String())
	}
}

// TestHandleAppendZeroAlloc is the memory-discipline gate for the
// handle-based recording path: once buffers have grown, appends through a
// handle must not allocate.
func TestHandleAppendZeroAlloc(t *testing.T) {
	r := NewRecorder()
	h := r.Handle("x")
	for i := 0; i < 4096; i++ {
		h.Add(float64(i), 1)
	}
	r.Reset()
	h = r.Handle("x")
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		h.Add(float64(i), 2)
		i++
	})
	if allocs != 0 {
		t.Errorf("handle append allocates %v allocs/op after warm-up", allocs)
	}
}

// TestCloneIntoRecyclesBuffers pins the pooled deep-copy path: CloneInto
// matches Clone byte for byte, recycles the destination's series buffers
// (zero allocs once warm), stays independent of the source, and clears
// stale series a previous occupant of the slot recorded.
func TestCloneIntoRecyclesBuffers(t *testing.T) {
	csv := func(r *Recorder) string {
		var sb strings.Builder
		if err := r.WriteCSV(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	src := NewRecorder()
	for i := 0; i < 64; i++ {
		src.Add("a", float64(i), float64(i)*0.5)
		src.Add("b", float64(i), -float64(i))
	}

	// A destination that previously held a different campaign's series.
	dst := NewRecorder()
	dst.Add("stale.series", 1, 2)

	if got, want := csv(src.CloneInto(dst)), csv(src.Clone()); got != want {
		t.Fatalf("CloneInto CSV diverged from Clone:\n%s\nvs\n%s", got, want)
	}
	if strings.Contains(csv(dst), "stale.series") {
		t.Fatal("stale series of the recycled destination leaked into the clone")
	}

	// Independence: mutating the source must not reach the clone.
	before := csv(dst)
	src.Add("a", 1000, 1000)
	if csv(dst) != before {
		t.Fatal("clone aliases the source recorder's buffers")
	}
	src.CloneInto(dst)

	// Warm steady state: same names, same sample counts — no allocations.
	allocs := testing.AllocsPerRun(10, func() {
		src.CloneInto(dst)
	})
	if allocs != 0 {
		t.Errorf("warm CloneInto allocates %v allocs/op, want 0", allocs)
	}
}
