package colfmt

import (
	"bytes"
	"math"
	"testing"

	"github.com/autoe2e/autoe2e/internal/simtime"
	"github.com/autoe2e/autoe2e/internal/trace"
)

// adversarialFloats is the codec's bit-exactness gauntlet: NaNs with
// distinct payloads, ±Inf, ±0, subnormals, and exponent-boundary
// neighbors.
var adversarialFloats = []float64{
	0, math.Copysign(0, -1),
	math.NaN(), math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff0000000000042),
	math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000fffffffffffff), // largest subnormal
	math.MaxFloat64, -math.MaxFloat64,
	1, math.Nextafter(1, 2), math.Nextafter(1, 0),
	2, math.Nextafter(2, 0), // binade boundary
	1e-300, 1e300, -3.14159, 0.1, 0.2, 0.30000000000000004,
}

func requireBitsEqual(t *testing.T, label string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length %d, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: sample %d = %x (%v), want %x (%v)", label, i,
				math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

func roundTripColumns(t *testing.T, ts, vs []float64) {
	t.Helper()
	tcol := appendTimeColumn(nil, ts)
	gotT, err := decodeTimeColumn(tcol, 0, len(tcol), len(ts), nil)
	if err != nil {
		t.Fatalf("decodeTimeColumn: %v", err)
	}
	requireBitsEqual(t, "timestamp column", ts, gotT)

	vcol := appendValueColumn(nil, vs)
	gotV, err := decodeValueColumn(vcol, 0, len(vcol), len(vs), nil)
	if err != nil {
		t.Fatalf("decodeValueColumn: %v", err)
	}
	requireBitsEqual(t, "value column", vs, gotV)
}

func TestCodecRoundTripAdversarial(t *testing.T) {
	roundTripColumns(t, adversarialFloats, adversarialFloats)

	// Non-monotone timestamps are not produced by simulation runs but the
	// codec must still round-trip them exactly.
	reversed := make([]float64, len(adversarialFloats))
	for i, v := range adversarialFloats {
		reversed[len(reversed)-1-i] = v
	}
	roundTripColumns(t, reversed, reversed)
}

func TestCodecRoundTripRandom(t *testing.T) {
	rng := simtime.NewRand(11)
	for round := 0; round < 50; round++ {
		n := rng.Intn(200)
		ts := make([]float64, n)
		vs := make([]float64, n)
		tick := 0.0
		for i := 0; i < n; i++ {
			tick += float64(rng.Intn(1000)) / 1000
			ts[i] = tick
			vs[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
		}
		roundTripColumns(t, ts, vs)
	}
}

// sampleRecorder builds a recorder shaped like a closed-loop control
// trace: periodic timestamps, slowly-varying utilizations, long constant
// stretches, and a spiky miss-ratio series.
func sampleRecorder(seed int64, seconds int) *trace.Recorder {
	rng := simtime.NewRand(seed)
	rec := trace.NewRecorder()
	util := rec.Handle("util.ecu0")
	prec := rec.Handle("precision.total")
	miss := rec.Handle("missratio.overall")
	u := 0.55
	for i := 0; i < seconds*10; i++ {
		tick := float64(i) * 0.1
		u += (0.7-u)*0.1 + rng.NormFloat64()*0.01
		util.Add(tick, u)
		prec.Add(tick, 7.5)
		m := 0.0
		if rng.Intn(20) == 0 {
			m = rng.Float64() * 0.3
		}
		miss.Add(tick, m)
	}
	return rec
}

func TestRunRoundTripCSVIdentical(t *testing.T) {
	rec := sampleRecorder(3, 60)
	var file bytes.Buffer
	w := NewWriter(&file)
	if err := w.WriteRun(rec); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(file.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if r.NumRuns() != 1 {
		t.Fatalf("NumRuns = %d, want 1", r.NumRuns())
	}
	run, err := r.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	decoded := trace.NewRecorder()
	if err := run.DecodeInto(decoded); err != nil {
		t.Fatal(err)
	}
	var want, got bytes.Buffer
	if err := rec.WriteCSV(&want); err != nil {
		t.Fatal(err)
	}
	if err := decoded.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatal("decoded recorder's CSV diverged from the original")
	}
}

// TestWriterStreamsRuns: a campaign appended run by run decodes back run
// by run, each byte-identical, and a recycled destination recorder works
// across runs of different content.
func TestWriterStreamsRuns(t *testing.T) {
	const runs = 5
	var file bytes.Buffer
	w := NewWriter(&file)
	var wantCSV [][]byte
	for i := 0; i < runs; i++ {
		rec := sampleRecorder(int64(i+1), 10+i)
		var csv bytes.Buffer
		if err := rec.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		wantCSV = append(wantCSV, csv.Bytes())
		if err := w.WriteRun(rec); err != nil {
			t.Fatal(err)
		}
	}
	r, err := NewReader(file.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if r.NumRuns() != runs {
		t.Fatalf("NumRuns = %d, want %d", r.NumRuns(), runs)
	}
	dst := trace.NewRecorder()
	for i := 0; i < runs; i++ {
		run, err := r.Run(i)
		if err != nil {
			t.Fatal(err)
		}
		if err := run.DecodeInto(dst); err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := dst.WriteCSV(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wantCSV[i], got.Bytes()) {
			t.Fatalf("run %d: decoded CSV diverged", i)
		}
	}
}

// TestLazyColumnAccess: Columns decodes one series without touching the
// others, reusing caller buffers.
func TestLazyColumnAccess(t *testing.T) {
	rec := sampleRecorder(7, 30)
	data := AppendRun([]byte(magic), rec)
	r, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	run, err := r.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if run.NumSeries() != 3 {
		t.Fatalf("NumSeries = %d, want 3", run.NumSeries())
	}
	var ts, vs []float64
	for j := 0; j < run.NumSeries(); j++ {
		name := run.Name(j)
		src := rec.Series(name)
		if src == nil {
			t.Fatalf("unknown decoded series %q", name)
		}
		if run.Len(j) != src.Len() {
			t.Fatalf("series %q: Len = %d, want %d", name, run.Len(j), src.Len())
		}
		ts, vs, err = run.Columns(j, ts, vs)
		if err != nil {
			t.Fatal(err)
		}
		requireBitsEqual(t, name+" timestamps", src.T, ts)
		requireBitsEqual(t, name+" values", src.V, vs)
	}
}

// TestAppendRunSteadyStateAllocs: once the campaign buffer has grown,
// appending further runs allocates nothing. This runtime gate backs the
// effects analyzer's growth-only model of binary.AppendUvarint, on which
// AppendRun's //lint:certify noalloc root rests.
func TestAppendRunSteadyStateAllocs(t *testing.T) {
	rec := sampleRecorder(1, 30)
	buf := AppendRun(nil, rec)
	cap0 := cap(buf)
	allocs := testing.AllocsPerRun(10, func() {
		buf = AppendRun(buf[:0], rec)
	})
	if cap(buf) != cap0 {
		t.Fatalf("campaign buffer regrew: cap %d -> %d", cap0, cap(buf))
	}
	if allocs != 0 {
		t.Errorf("warm AppendRun allocates %v allocs/op, want 0", allocs)
	}
}

// TestCampaignFootprint pins the acceptance ratio on a realistic trace:
// the binary run record must be at least 4x smaller than the CSV the
// in-memory accumulation path would retain.
func TestCampaignFootprint(t *testing.T) {
	rec := sampleRecorder(5, 120)
	var csv bytes.Buffer
	if err := rec.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	bin := AppendRun(nil, rec)
	ratio := float64(csv.Len()) / float64(len(bin))
	t.Logf("CSV %d bytes, columnar %d bytes, ratio %.1fx", csv.Len(), len(bin), ratio)
	if ratio < 4 {
		t.Errorf("columnar trace only %.2fx smaller than CSV, want >= 4x", ratio)
	}
}

// TestCorruptInputs: truncations and bit flips must error, never panic or
// over-read.
func TestCorruptInputs(t *testing.T) {
	rec := sampleRecorder(2, 5)
	data := AppendRun([]byte(magic), rec)
	if _, err := NewReader(data[:2]); err == nil {
		t.Error("short magic accepted")
	}
	if _, err := NewReader([]byte("XXXX")); err == nil {
		t.Error("bad magic accepted")
	}
	for cut := len(magic) + 1; cut < len(data); cut += 7 {
		if _, err := NewReader(data[:cut]); err == nil {
			// Some prefixes happen to end on a record boundary; only the
			// marker byte itself is always invalid to drop mid-series.
			if r, _ := NewReader(data[:cut]); r != nil && r.NumRuns() == 1 {
				continue
			}
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	bad := append([]byte(nil), data...)
	bad[len(magic)] = 'X' // break the run marker
	if _, err := NewReader(bad); err == nil {
		t.Error("bad run marker accepted")
	}
}

// TestRunIntoRecycles: one Run value reused across runs of different
// shapes must parse each correctly — the recycled header scratch from a
// wider run must not leak stale series into a narrower one.
func TestRunIntoRecycles(t *testing.T) {
	var file bytes.Buffer
	w := NewWriter(&file)
	recs := []*trace.Recorder{
		sampleRecorder(1, 20),
		trace.NewRecorder(), // empty run: zero series
		sampleRecorder(9, 5),
	}
	for _, rec := range recs {
		if err := w.WriteRun(rec); err != nil {
			t.Fatal(err)
		}
	}
	r, err := NewReader(file.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var run *Run
	dst := trace.NewRecorder()
	for i, rec := range recs {
		run, err = r.RunInto(i, run)
		if err != nil {
			t.Fatal(err)
		}
		if err := run.DecodeInto(dst); err != nil {
			t.Fatal(err)
		}
		var want, got bytes.Buffer
		if err := rec.WriteCSV(&want); err != nil {
			t.Fatal(err)
		}
		if err := dst.WriteCSV(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Fatalf("run %d: decoded CSV diverged through recycled Run", i)
		}
		if names := rec.Names(); len(names) > 0 && run.Name(0) != names[0] {
			t.Fatalf("run %d: Name(0) = %q, want %q", i, run.Name(0), names[0])
		}
	}
}

// TestDecodeSteadyStateAllocs is the allocation gate for the read path:
// once a recycled Run and destination recorder have seen a run's shape,
// re-parsing headers and decoding every column must allocate nothing —
// a campaign scan's per-run cost is decode work, not garbage.
func TestDecodeSteadyStateAllocs(t *testing.T) {
	rec := sampleRecorder(4, 60)
	var file bytes.Buffer
	if err := NewWriter(&file).WriteRun(rec); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(file.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	run, err := r.Run(0) // sizing pass for the header scratch
	if err != nil {
		t.Fatal(err)
	}
	dst := trace.NewRecorder()
	if err := run.DecodeInto(dst); err != nil { // sizing pass for dst
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		run, err = r.RunInto(0, run)
		if err != nil {
			t.Fatal(err)
		}
		if err := run.DecodeInto(dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("steady-state decode allocates %.1f times per run, want 0", allocs)
	}
}
