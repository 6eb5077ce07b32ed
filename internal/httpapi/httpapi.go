// Package httpapi exposes the miner as a small JSON-over-HTTP service: a
// time-series database component would deploy this next to its storage
// layer. Stateless by design — every request carries its series (symbols or
// raw numeric values) and its mining parameters as a pattern query.
//
// The serving path is built for production traffic: every mine is driven by
// the request context plus a configurable deadline (a disconnected client
// stops consuming CPU), a semaphore admission controller sheds load with
// 429 + Retry-After instead of queueing unboundedly, and an obs.Registry
// records per-endpoint request counts, status classes, an in-flight gauge,
// and mine-duration histograms served at /metrics. /healthz reports
// liveness, /readyz flips to 503 during drain, and structured access logs
// carry a request ID per request.
package httpapi

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"periodica"
	"periodica/internal/exec"
	"periodica/internal/obs"
	"periodica/internal/result"
)

// MaxBodyBytes is the default request-body cap (64 MiB).
const MaxBodyBytes = 64 << 20

// DefaultRequestTimeout bounds each mining request when Config.RequestTimeout
// is zero.
const DefaultRequestTimeout = 2 * time.Minute

// StatusClientClosedRequest is the de-facto status (nginx's 499) recorded
// when the client disconnected before the mine finished. The client never
// sees it; it keeps logs and metrics honest about who ended the request.
const StatusClientClosedRequest = 499

// Config tunes a Server. The zero value serves with sane defaults.
type Config struct {
	// MaxConcurrency caps the number of simultaneously mining requests;
	// excess requests are shed with 429 + Retry-After. 0 means twice
	// GOMAXPROCS.
	MaxConcurrency int
	// RequestTimeout bounds each mining call via the request context;
	// 0 means DefaultRequestTimeout, negative disables the deadline.
	RequestTimeout time.Duration
	// MaxBodyBytes caps request bodies; 0 means the MaxBodyBytes constant.
	MaxBodyBytes int64
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// Logger receives structured access and error logs; nil means
	// slog.Default().
	Logger *slog.Logger
	// Metrics receives the serving metrics; nil means a fresh registry.
	Metrics *obs.Registry
	// Distributor, when set, shards /v1/mine requests across worker nodes
	// instead of mining in-process. /v1/candidates and /v1/shard always run
	// locally.
	Distributor Distributor
	// DefaultQuery, when set, is the pattern query applied to /v1/mine and
	// /v1/candidates requests that carry no query of their own. Without it
	// such requests are a 400. opserve sets it from -query /
	// PERIODICA_QUERY after compiling it at startup.
	DefaultQuery string
}

// Server is the mining service: an http.Handler plus the lifecycle state
// (readiness, admission gate, metrics) behind it. Admission delegates to an
// exec.Gate, so the request-level concurrency limit lives in the same
// package as the engine-level worker budget it protects.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	gate    *exec.Gate
	ready   atomic.Bool
	metrics *obs.Registry
	log     *slog.Logger
	reqSeq  atomic.Uint64 // request-ID fallback when crypto/rand fails
	// drainSecs is the drain window in whole seconds, stored by Run when
	// shutdown begins so /readyz can tell callers how long to stay away.
	drainSecs atomic.Int64
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	if cfg.MaxConcurrency == 0 {
		cfg.MaxConcurrency = 2 * runtime.GOMAXPROCS(0)
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = DefaultRequestTimeout
	}
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = MaxBodyBytes
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	s := &Server{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		gate:    exec.NewGate(cfg.MaxConcurrency),
		metrics: cfg.Metrics,
		log:     cfg.Logger,
	}
	s.ready.Store(true)
	s.mux.HandleFunc("/healthz", s.instrument("/healthz", s.handleHealth))
	s.mux.HandleFunc("/readyz", s.instrument("/readyz", s.handleReady))
	s.mux.HandleFunc("/metrics", s.instrument("/metrics", s.handleMetrics))
	s.mux.HandleFunc("/v1/mine", s.instrument("/v1/mine", s.handleMine))
	s.mux.HandleFunc("/v1/candidates", s.instrument("/v1/candidates", s.handleCandidates))
	s.mux.HandleFunc("/v1/shard", s.instrument("/v1/shard", s.handleShard))
	if cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// Handler returns the service's HTTP handler with default configuration.
func Handler() http.Handler { return New(Config{}) }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Metrics returns the server's metrics registry.
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// SetReady flips the /readyz answer; Run flips it to false when draining so
// load balancers stop routing new work here while in-flight requests finish.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// MineRequest is the body of POST /v1/mine and POST /v1/candidates. Exactly
// one of Symbols and Values must be set. Query states the mining
// parameters, a pattern-query string like "conf >= 0.8 and period in
// 2..64"; when it is empty the server's DefaultQuery applies.
type MineRequest struct {
	// Symbols is a string of single-rune symbols.
	Symbols string `json:"symbols,omitempty"`
	// Values are raw numeric readings, discretized as the query's "levels"
	// and "discretize" clauses direct (default 5 equal-width levels).
	Values []float64 `json:"values,omitempty"`
	// Query is a pattern-query string.
	Query string `json:"query,omitempty"`
}

// resolveQuery compiles the request's effective query: its Query string, or
// the server's default query when the request carries none. On failure it
// has written the 400.
func (s *Server) resolveQuery(w http.ResponseWriter, req *MineRequest) (*periodica.Query, bool) {
	src := req.Query
	if src == "" {
		src = s.cfg.DefaultQuery
	}
	if src == "" {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{
			Error: `query required: set "query", e.g. "conf >= 0.8" (this server has no default query)`})
		return nil, false
	}
	q, err := periodica.CompileQuery(src)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return nil, false
	}
	return q, true
}

// ErrorResponse is the JSON error envelope.
type ErrorResponse struct {
	Error string `json:"error"`
}

// CandidatesResponse is the body of a successful POST /v1/candidates.
type CandidatesResponse struct {
	Threshold float64 `json:"threshold"`
	Periods   []int   `json:"periods"`
}

// statusRecorder captures the response status and size for logs and metrics.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (sr *statusRecorder) WriteHeader(status int) {
	sr.status = status
	sr.ResponseWriter.WriteHeader(status)
}

func (sr *statusRecorder) Write(p []byte) (int, error) {
	n, err := sr.ResponseWriter.Write(p)
	sr.bytes += int64(n)
	return n, err
}

// instrument wraps a handler with the observability layer: request IDs,
// in-flight gauge, per-endpoint counters and latency histograms, and one
// structured access-log line per request.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	ep := s.metrics.Endpoint(endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get("X-Request-Id")
		if id == "" {
			id = s.newRequestID()
		}
		w.Header().Set("X-Request-Id", id)
		s.metrics.InFlight().Inc()
		defer s.metrics.InFlight().Dec()
		sr := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h(sr, r)
		elapsed := time.Since(start)
		ep.ObserveRequest(sr.status, elapsed)
		s.log.Info("request",
			"id", id,
			"method", r.Method,
			"path", r.URL.Path,
			"status", sr.status,
			"bytes", sr.bytes,
			"duration", elapsed,
			"remote", r.RemoteAddr,
		)
	}
}

// newRequestID returns 16 hex chars of crypto randomness, falling back to a
// process-local sequence number if the system entropy source fails.
func (s *Server) newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("seq-%d", s.reqSeq.Add(1))
	}
	return hex.EncodeToString(b[:])
}

// allowReadOnly gates a handler to GET and HEAD, answering 405 otherwise.
func allowReadOnly(w http.ResponseWriter, r *http.Request) bool {
	if r.Method == http.MethodGet || r.Method == http.MethodHead {
		return true
	}
	w.Header().Set("Allow", "GET, HEAD")
	writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "GET or HEAD required"})
	return false
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if !allowReadOnly(w, r) {
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if !allowReadOnly(w, r) {
		return
	}
	if !s.ready.Load() {
		w.Header().Set("Retry-After", strconv.FormatInt(max(s.drainSecs.Load(), 1), 10))
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !allowReadOnly(w, r) {
		return
	}
	s.metrics.Handler().ServeHTTP(w, r)
}

// admit reserves an admission slot, or sheds the request with 429. The
// returned release must be called when mining finishes. Admission wraps only
// the mining call, not the body read: a slow client trickling its upload
// must not hold a mining slot.
func (s *Server) admit(w http.ResponseWriter) (release func(), ok bool) {
	if s.gate.TryAcquire() {
		return s.gate.Release, true
	}
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	writeJSON(w, http.StatusTooManyRequests,
		ErrorResponse{Error: "server is at its mining concurrency limit; retry later"})
	return nil, false
}

// retryAfterSeconds estimates when an admission slot will free: the mean
// mine duration observed so far across all endpoints, scaled by how full
// the gate is, rounded up to whole seconds and clamped to [1, 60]. Before
// any mine has completed, the estimate is one second.
func (s *Server) retryAfterSeconds() int {
	mean := time.Second
	if count, sum := s.metrics.MineDurations(); count > 0 {
		mean = sum / time.Duration(count)
	}
	est := mean * time.Duration(s.gate.InUse()) / time.Duration(s.gate.Capacity())
	secs := int((est + time.Second - 1) / time.Second)
	return min(max(secs, 1), 60)
}

// requestContext derives the mining context from the client's: it is
// cancelled when the client disconnects and, unless disabled, bounded by
// the configured per-request deadline.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.cfg.RequestTimeout < 0 {
		return context.WithCancel(r.Context())
	}
	return context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
}

// writeMineError maps a mining failure to the status its cause deserves:
// client disconnect → 499, deadline → 504, invalid input → 400, anything
// else → 500 with the detail kept out of the response.
func (s *Server) writeMineError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, context.Canceled):
		writeJSON(w, StatusClientClosedRequest, ErrorResponse{Error: "client closed request"})
	case errors.Is(err, context.DeadlineExceeded):
		writeJSON(w, http.StatusGatewayTimeout, ErrorResponse{
			Error: fmt.Sprintf("mining exceeded the %v request deadline", s.cfg.RequestTimeout)})
	case errors.Is(err, periodica.ErrInvalidInput):
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
	default:
		s.log.Error("internal mining error", "path", r.URL.Path, "err", err)
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: "internal error"})
	}
}

func (s *Server) handleMine(w http.ResponseWriter, r *http.Request) {
	req, ok := s.decodeRequest(w, r)
	if !ok {
		return
	}
	q, ok := s.resolveQuery(w, &req)
	if !ok {
		return
	}
	series, ok := s.buildSeries(w, &req, q)
	if !ok {
		return
	}
	release, ok := s.admit(w)
	if !ok {
		return
	}
	defer release()
	ctx, cancel := s.requestContext(r)
	defer cancel()
	start := time.Now()
	var (
		res *periodica.Result
		err error
	)
	if s.cfg.Distributor != nil {
		res, err = s.cfg.Distributor.Mine(ctx, series, q.Options())
		if err == nil {
			res, err = q.Shape(series, res)
		}
	} else {
		res, err = periodica.MineQueryContext(ctx, series, q)
	}
	s.metrics.Endpoint("/v1/mine").ObserveMine(time.Since(start))
	if err != nil {
		s.writeMineError(w, r, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := result.WriteJSON(w, res); err != nil {
		if errors.Is(err, result.ErrNonFinite) {
			// Nothing was written, so the 200 has not gone out.
			s.writeMineError(w, r, err)
			return
		}
		s.log.Warn("writing response", "path", r.URL.Path, "err", err)
	}
}

func (s *Server) handleCandidates(w http.ResponseWriter, r *http.Request) {
	req, ok := s.decodeRequest(w, r)
	if !ok {
		return
	}
	q, ok := s.resolveQuery(w, &req)
	if !ok {
		return
	}
	series, ok := s.buildSeries(w, &req, q)
	if !ok {
		return
	}
	release, ok := s.admit(w)
	if !ok {
		return
	}
	defer release()
	ctx, cancel := s.requestContext(r)
	defer cancel()
	start := time.Now()
	periods, err := periodica.CandidatePeriodsQueryContext(ctx, series, q)
	s.metrics.Endpoint("/v1/candidates").ObserveMine(time.Since(start))
	if err != nil {
		s.writeMineError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, CandidatesResponse{Threshold: q.Options().Threshold, Periods: periods})
}

// decodeRequest parses a /v1/mine or /v1/candidates body; on failure it has
// already written the error response.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request) (MineRequest, bool) {
	var req MineRequest
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "POST required"})
		return req, false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeJSON(w, http.StatusRequestEntityTooLarge, ErrorResponse{
				Error: fmt.Sprintf("request body exceeds the %d-byte limit", tooLarge.Limit)})
			return req, false
		}
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: fmt.Sprintf("bad request body: %v", err)})
		return req, false
	}
	return req, true
}

// buildSeries constructs the input series: symbols verbatim, values through
// the resolved query's discretization clauses. On failure it has already
// written the error response.
func (s *Server) buildSeries(w http.ResponseWriter, req *MineRequest, q *periodica.Query) (*periodica.Series, bool) {
	var (
		series *periodica.Series
		err    error
	)
	switch {
	case req.Symbols != "" && req.Values != nil:
		err = fmt.Errorf("set either symbols or values, not both")
	case req.Symbols != "":
		series, err = periodica.NewSeriesFromString(req.Symbols)
	case req.Values != nil:
		if len(req.Values) == 0 {
			err = fmt.Errorf("values must not be empty")
			break
		}
		series, err = q.DiscretizeValues(req.Values)
	default:
		err = fmt.Errorf("symbols or values required")
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return nil, false
	}
	return series, true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
