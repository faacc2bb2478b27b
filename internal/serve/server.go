package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync"

	"github.com/autoe2e/autoe2e/internal/trace/colfmt"
)

// maxBodyBytes bounds a request body; specs are small.
const maxBodyBytes = 1 << 20

// Handler returns the HTTP face of the server:
//
//	POST /v1/run     one RunSpec        -> summary JSON or colfmt trace
//	POST /v1/sweep   one SweepSpec      -> runs array or colfmt stream
//	GET  /v1/metrics aggregate CSV
//	GET  /v1/healthz liveness
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	return mux
}

// writeError emits the uniform JSON error body; retryAfterS > 0 also sets
// the Retry-After header (the backpressure contract's machine-readable
// back-off hint).
func writeError(w http.ResponseWriter, status int, msg string, retryAfterS int) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	if retryAfterS > 0 {
		h.Set("Retry-After", strconv.Itoa(retryAfterS))
	}
	w.WriteHeader(status)
	w.Write(appendError(nil, msg, retryAfterS))
}

// errTrailingData rejects a body that holds more than one JSON value.
var errTrailingData = errors.New("trailing data after the JSON value")

// bodyBufs pools the buffers decode reads request bodies into, so reading
// a body whole allocates nothing once the pool is warm.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBody caps the bodies whose buffer goes back to the pool, so one
// large request does not pin its buffer for the life of the process.
const maxPooledBody = 64 << 10

// decode strictly decodes one JSON request body into v: unknown fields
// are an error, and so is anything but whitespace after the value. The
// body is read whole first, so the trailing check scans bytes in hand;
// asking the decoder for a next token instead makes it grow its buffer
// whenever whitespace follows the value.
func decode(body io.Reader, v any) error {
	buf := bodyBufs.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBody {
			bodyBufs.Put(buf)
		}
	}()
	buf.Reset()
	if _, err := buf.ReadFrom(body); err != nil {
		return err
	}
	data := buf.Bytes() // still valid after the decoder drains buf
	dec := json.NewDecoder(buf)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if len(bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n")) > 0 {
		return errTrailingData
	}
	return nil
}

// setTimingHeaders mirrors the per-request timing block as headers, for
// bodies (colfmt) that cannot carry it inline.
func setTimingHeaders(h http.Header, t Timing) {
	h.Set("X-Autoe2e-Queue-Wait-Ns", strconv.FormatInt(t.QueueWaitNs, 10))
	h.Set("X-Autoe2e-Batch-Wait-Ns", strconv.FormatInt(t.BatchWaitNs, 10))
	h.Set("X-Autoe2e-Run-Ns", strconv.FormatInt(t.RunNs, 10))
	h.Set("X-Autoe2e-Serialize-Ns", strconv.FormatInt(t.SerializeNs, 10))
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var spec RunSpec
	if err := decode(http.MaxBytesReader(w, r.Body, maxBodyBytes), &spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad run spec: "+err.Error(), 0)
		return
	}
	res, err := resolve(&spec)
	s.serveRequest(w, &res, err)
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var spec SweepSpec
	if err := decode(http.MaxBytesReader(w, r.Body, maxBodyBytes), &spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad sweep spec: "+err.Error(), 0)
		return
	}
	res, err := resolveSweep(&spec, s.opts.QueueDepth)
	s.serveRequest(w, &res, err)
}

// serveRequest answers a validated request (or its validation error, 400)
// on the one request path: submit its group, then frame the response.
func (s *Server) serveRequest(w http.ResponseWriter, res *resolved, err error) {
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error(), 0)
		return
	}
	g := s.getGroup(res)
	defer s.groups.Put(g)
	if status, retryAfterS, msg := s.submit(g); status != 0 {
		writeError(w, status, msg, retryAfterS)
		return
	}
	if msg := g.failure(); msg != "" {
		writeError(w, http.StatusInternalServerError, msg, 0)
		return
	}
	h := w.Header()
	if res.sweep {
		h.Set("X-Autoe2e-Runs", strconv.Itoa(len(g.runs)))
	}
	if res.colfmt {
		h.Set("Content-Type", "application/octet-stream")
		if !res.sweep {
			setTimingHeaders(h, g.runs[0].timing)
		}
	} else {
		h.Set("Content-Type", "application/json")
	}
	w.WriteHeader(http.StatusOK)
	g.writeBody(w)
}

// failure returns the error message of the finished group's first failed
// run (prefixed for a sweep), or "" when every run succeeded.
func (g *group) failure() string {
	for i := range g.runs {
		if msg := g.runs[i].errMsg; msg != "" {
			if g.res.sweep {
				msg = "sweep run failed: " + msg
			}
			return msg
		}
	}
	return ""
}

// Framing pieces of the response body, shared rather than converted per
// write.
var (
	colfmtMagic = colfmt.AppendMagic(nil)
	runsOpen    = []byte(`{"runs":[`)
	runsSep     = []byte(`,`)
	runsClose   = []byte(`]}`)
)

// writeBody frames the successful group's runs onto w, in seed order. A
// colfmt body is the file magic, written here once, then every run; a JSON
// body is the run object itself for a single run and {"runs":[...]} for a
// sweep.
func (g *group) writeBody(w io.Writer) {
	switch {
	case g.res.colfmt:
		w.Write(colfmtMagic)
		for i := range g.runs {
			w.Write(g.runs[i].buf)
		}
	case !g.res.sweep:
		w.Write(g.runs[0].buf)
	default:
		w.Write(runsOpen)
		for i := range g.runs {
			if i > 0 {
				w.Write(runsSep)
			}
			w.Write(g.runs[i].buf)
		}
		w.Write(runsClose)
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/csv")
	w.Write(s.metrics.AppendCSV(nil))
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Write([]byte(`{"ok":true}`))
}
