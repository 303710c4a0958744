package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"fbplace/internal/chipio"
	"fbplace/internal/faultsim"
	"fbplace/internal/obs"
	"fbplace/internal/plot"
)

// Server is the HTTP/JSON face of a Scheduler. Routes:
//
//	POST /jobs               submit a Spec, returns the job's Status (202)
//	GET  /jobs               list all jobs
//	GET  /jobs/{id}          one job's Status
//	GET  /jobs/{id}/events   progress stream: SSE, or JSON lines with
//	                         ?format=jsonl (the job's event log from its
//	                         first retained event, then the live tail)
//	POST /jobs/{id}/cancel   cancel a job
//	GET  /jobs/{id}/result   finished placement as JSON; ?format=hex dumps
//	                         "xbits ybits" hex float64 lines (bit-exact)
//	GET  /jobs/{id}/svg      render the finished placement
//	GET  /stats              scheduler counters, gauges and job states
//	GET  /healthz            liveness probe (never degrades)
//	GET  /readyz             readiness probe: 503 while draining or with
//	                         a saturated queue
//
// Every error response is one structured envelope: {code, reason,
// retry_after_s?}, with a matching Retry-After header on retryable
// rejections. Overload is refused at admission (429 queue_full, 503
// over_budget); an accepted job and its endpoints are never shed.
type Server struct {
	s   *Scheduler
	mux *http.ServeMux
}

// NewServer wraps sched in an http.Handler.
func NewServer(sched *Scheduler) *Server {
	sv := &Server{s: sched, mux: http.NewServeMux()}
	sv.mux.HandleFunc("POST /jobs", sv.submit)
	sv.mux.HandleFunc("GET /jobs", sv.list)
	sv.mux.HandleFunc("GET /jobs/{id}", sv.status)
	sv.mux.HandleFunc("GET /jobs/{id}/events", sv.events)
	sv.mux.HandleFunc("POST /jobs/{id}/cancel", sv.cancel)
	sv.mux.HandleFunc("GET /jobs/{id}/result", sv.result)
	sv.mux.HandleFunc("GET /jobs/{id}/svg", sv.svg)
	sv.mux.HandleFunc("GET /stats", sv.stats)
	sv.mux.HandleFunc("GET /healthz", sv.healthz)
	sv.mux.HandleFunc("GET /readyz", sv.readyz)
	return sv
}

func (sv *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sv.mux.ServeHTTP(w, r)
}

// apiError is the structured JSON error envelope every handler returns:
// a stable machine-readable code, the human-readable reason, and — for
// retryable conditions — the server's backoff hint in seconds (also sent
// as a Retry-After header).
type apiError struct {
	Code        string  `json:"code"`
	Reason      string  `json:"reason"`
	RetryAfterS float64 `json:"retry_after_s,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// A failed write means the client went away; there is nobody left to
	// report it to.
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, code string, err error) {
	writeErrorRetry(w, status, code, err, 0)
}

// retryAfterSeconds converts a retry hint into the whole seconds spoken
// on the wire. Retry-After has no sub-second form, and rounding DOWN
// would invite the client back before the window it was told about has
// passed — so any positive hint rounds up, never below one second. Every
// Retry-After header and every retry_after_s body field must go through
// this helper so the two can never disagree.
func retryAfterSeconds(ra time.Duration) int64 {
	if ra <= 0 {
		return 0
	}
	return int64(math.Ceil(ra.Seconds()))
}

// writeErrorRetry emits the error envelope; a positive ra adds the
// Retry-After header (whole seconds, rounded up) and retry_after_s field.
func writeErrorRetry(w http.ResponseWriter, status int, code string, err error, ra time.Duration) {
	env := apiError{Code: code, Reason: err.Error()}
	if secs := retryAfterSeconds(ra); secs > 0 {
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		env.RetryAfterS = float64(secs)
	}
	writeJSON(w, status, env)
}

// writeSubmitError maps a Submit error onto the envelope: admission
// rejections carry their own status (429/503) and Retry-After, client
// mistakes are 400s, shutdown and injected faults 503s.
func writeSubmitError(w http.ResponseWriter, err error) {
	var ae *AdmissionError
	var se *SpecError
	switch {
	case errors.As(err, &ae):
		writeErrorRetry(w, ae.Status, ae.Code(), err, ae.RetryAfter)
	case errors.As(err, &se):
		writeError(w, http.StatusBadRequest, "bad_spec", err)
	case errors.Is(err, ErrShuttingDown):
		writeError(w, http.StatusServiceUnavailable, "shutting_down", err)
	case errors.Is(err, faultsim.ErrInjected):
		writeError(w, http.StatusServiceUnavailable, "injected", err)
	default:
		writeError(w, http.StatusBadRequest, "bad_spec", err)
	}
}

// maxSpecBytes bounds a POST /jobs body. Inline netlist text is the
// largest legitimate payload; instances past this belong on disk behind a
// "file" reference (fbplaced -root). The bound keeps a hostile or buggy
// client from streaming unbounded JSON into the decoder.
const maxSpecBytes = 8 << 20

func (sv *Server) submit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	r.Body = http.MaxBytesReader(w, r.Body, maxSpecBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge, "payload_too_large",
				fmt.Errorf("request body exceeds %d bytes (use a file reference for large instances)", mbe.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, "bad_spec", fmt.Errorf("decoding spec: %w", err))
		return
	}
	j, err := sv.s.Submit(spec)
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, j.Status())
}

func (sv *Server) list(w http.ResponseWriter, _ *http.Request) {
	jobs := sv.s.Jobs()
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	writeJSON(w, http.StatusOK, out)
}

// job resolves the {id} path value, answering 404 itself when unknown
// (including jobs the disk governor has since garbage-collected).
func (sv *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, ok := sv.s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown_job", fmt.Errorf("%w: %s", ErrUnknownJob, r.PathValue("id")))
	}
	return j, ok
}

func (sv *Server) status(w http.ResponseWriter, r *http.Request) {
	if j, ok := sv.job(w, r); ok {
		writeJSON(w, http.StatusOK, j.Status())
	}
}

func (sv *Server) cancel(w http.ResponseWriter, r *http.Request) {
	j, ok := sv.job(w, r)
	if !ok {
		return
	}
	if err := sv.s.Cancel(j.ID); err != nil {
		writeError(w, http.StatusNotFound, "unknown_job", err)
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

// events streams the job's progress log from its first retained event
// until the job ends or the client disconnects: SSE frames by default
// ("event: <type>", JSON data), plain JSON lines with ?format=jsonl.
// When the stream ends, the events the log evicted before this reader
// got to them (it fell more than obs.DefaultRetain behind) are added to
// serve.events.dropped.
func (sv *Server) events(w http.ResponseWriter, r *http.Request) {
	j, ok := sv.job(w, r)
	if !ok {
		return
	}
	jsonl := r.URL.Query().Get("format") == "jsonl"
	if jsonl {
		w.Header().Set("Content-Type", "application/jsonl")
	} else {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	skipped := j.follow(r.Context(), func(e obs.Event) bool {
		data, err := json.Marshal(e)
		if err != nil {
			return false
		}
		if jsonl {
			_, err = fmt.Fprintf(w, "%s\n", data)
		} else {
			_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", e.Type, data)
		}
		if err != nil {
			return false // client went away
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	})
	sv.s.rec.Count("serve.events.dropped", float64(skipped))
}

// resultOf fetches the job's result, answering the error response itself
// when it is not available.
func (sv *Server) resultOf(w http.ResponseWriter, j *Job) (*Result, bool) {
	res, err := j.Result()
	if err != nil {
		if !j.State().Terminal() {
			// Still queued/running: retry later.
			writeErrorRetry(w, http.StatusAccepted, "pending", err, time.Second)
		} else {
			// Failures with a machine-readable code keep it on the wire
			// (result_uncertified: certification failed after the re-run).
			code := "no_result"
			if ec := j.Status().ErrorCode; ec != "" {
				code = ec
			}
			writeError(w, http.StatusConflict, code, err)
		}
		return nil, false
	}
	return res, true
}

// resultJSON is the wire form of a finished placement.
type resultJSON struct {
	ID           string    `json:"id"`
	HPWL         float64   `json:"hpwl"`
	Levels       int       `json:"levels"`
	Violations   int       `json:"violations"`
	Overlaps     int       `json:"overlaps"`
	GlobalMS     int64     `json:"global_ms"`
	LegalMS      int64     `json:"legal_ms"`
	Certified    bool      `json:"certified,omitempty"`
	Degradations []string  `json:"degradations,omitempty"`
	X            []float64 `json:"x"`
	Y            []float64 `json:"y"`
}

func (sv *Server) result(w http.ResponseWriter, r *http.Request) {
	j, ok := sv.job(w, r)
	if !ok {
		return
	}
	res, ok := sv.resultOf(w, j)
	if !ok {
		return
	}
	if r.URL.Query().Get("format") == "hex" {
		w.Header().Set("Content-Type", "text/plain")
		w.WriteHeader(http.StatusOK)
		_ = chipio.WriteHex(w, res.X, res.Y) // an error means the client went away
		return
	}
	out := resultJSON{
		ID: j.ID, HPWL: res.HPWL, Levels: res.Levels,
		Violations: res.Violations, Overlaps: res.Overlaps,
		GlobalMS: res.GlobalTime.Milliseconds(), LegalMS: res.LegalTime.Milliseconds(),
		Certified: res.Certified,
		X:         res.X, Y: res.Y,
	}
	for _, d := range res.Degradations {
		out.Degradations = append(out.Degradations,
			fmt.Sprintf("%s -> %s (%s)", d.Stage, d.Fallback, d.Detail))
	}
	writeJSON(w, http.StatusOK, out)
}

func (sv *Server) svg(w http.ResponseWriter, r *http.Request) {
	j, ok := sv.job(w, r)
	if !ok {
		return
	}
	res, ok := sv.resultOf(w, j)
	if !ok {
		return
	}
	if j.n == nil {
		// A job recovered in a terminal state has no instance loaded.
		writeError(w, http.StatusConflict, "no_geometry", fmt.Errorf("serve: job %s predates this process; no geometry retained", j.ID))
		return
	}
	// Render from the result's positions: the job's netlist may since have
	// been rewound or reused, the result never changes.
	nn := j.n.Clone()
	copy(nn.X, res.X)
	copy(nn.Y, res.Y)
	w.Header().Set("Content-Type", "image/svg+xml")
	w.WriteHeader(http.StatusOK)
	// Mid-stream failures mean a disconnected client; the status is sent.
	_ = plot.SVG(w, nn, j.mbs, plot.Options{Title: j.ID})
}

func (sv *Server) stats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, sv.s.Stats())
}

func (sv *Server) healthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write([]byte("ok " + strconv.FormatInt(time.Now().Unix(), 10) + "\n")); err != nil {
		return
	}
}

// readyz is the readiness probe: 200 while the service should receive
// traffic, 503 (with the reason and a Retry-After) while draining or
// with a saturated queue. Liveness stays on /healthz.
func (sv *Server) readyz(w http.ResponseWriter, _ *http.Request) {
	rd := sv.s.Readiness()
	if rd.Ready {
		writeJSON(w, http.StatusOK, rd)
		return
	}
	if secs := retryAfterSeconds(time.Duration(rd.RetryAfterS * float64(time.Second))); secs > 0 {
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		// The body must quote the same whole-second figure as the header:
		// a client reading either must see one retry window, not two.
		rd.RetryAfterS = float64(secs)
	}
	writeJSON(w, http.StatusServiceUnavailable, rd)
}
