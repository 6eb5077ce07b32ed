package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"periodica"
)

// quiet returns a server with the given config and a discarded access log.
func quiet(cfg Config) *Server {
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return New(cfg)
}

func post(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// largeSeriesBody builds a mine request over a large pseudo-random series:
// mining it takes far longer than the cancellation bounds under test.
func largeSeriesBody(n int) string {
	rng := rand.New(rand.NewSource(42))
	var b strings.Builder
	b.Grow(n)
	for i := 0; i < n; i++ {
		b.WriteByte(byte('a' + rng.Intn(8)))
	}
	return fmt.Sprintf(`{"symbols":%q,"threshold":0.05}`, b.String())
}

func TestHealthz(t *testing.T) {
	rec := httptest.NewRecorder()
	quiet(Config{}).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body["status"] != "ok" {
		t.Fatalf("body %v", body)
	}
}

func TestMineSymbols(t *testing.T) {
	rec := post(t, quiet(Config{}), "/v1/mine", `{"symbols":"abcabbabcb","threshold":0.66}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var res periodica.Result
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	foundAB := false
	for _, pt := range res.Patterns {
		if pt.Text == "ab*" {
			foundAB = true
		}
	}
	if !foundAB {
		t.Fatalf("pattern ab* missing from service result: %+v", res.Patterns)
	}
}

func TestMineValues(t *testing.T) {
	rec := post(t, quiet(Config{}), "/v1/mine",
		`{"values":[1,5,9,1,5,9,1,5,9,1,5,9],"levels":3,"threshold":1}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var res periodica.Result
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Periods) == 0 || res.Periods[0] != 3 {
		t.Fatalf("periods %v, want leading 3", res.Periods)
	}
}

func TestCandidates(t *testing.T) {
	rec := post(t, quiet(Config{}), "/v1/candidates",
		`{"symbols":"`+strings.Repeat("abcd", 50)+`","threshold":1}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var res CandidatesResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	has4 := false
	for _, p := range res.Periods {
		if p == 4 {
			has4 = true
		}
	}
	if !has4 {
		t.Fatalf("period 4 missing: %v", res.Periods)
	}
}

func TestBadRequests(t *testing.T) {
	h := quiet(Config{})
	cases := map[string]string{
		"neither symbols nor values": `{"threshold":0.5}`,
		"both symbols and values":    `{"symbols":"ab","values":[1],"threshold":0.5}`,
		"bad threshold":              `{"symbols":"abab","threshold":0}`,
		"invalid json":               `{`,
		"unknown field":              `{"symbols":"abab","threshold":0.5,"bogus":1}`,
		"constant values":            `{"values":[2,2,2,2],"threshold":0.5}`,
		"negative levels":            `{"values":[1,2,3,4],"levels":-3,"threshold":0.5}`,
		"explicit empty values":      `{"values":[],"threshold":0.5}`,
	}
	for name, body := range cases {
		rec := post(t, h, "/v1/mine", body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, rec.Code)
		}
		var er ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
			t.Errorf("%s: error envelope missing: %s", name, rec.Body)
		}
	}
}

func TestValidationErrorMessages(t *testing.T) {
	h := quiet(Config{})
	rec := post(t, h, "/v1/mine", `{"values":[1,2,3,4],"levels":-3,"threshold":0.5}`)
	if !strings.Contains(rec.Body.String(), "levels must be non-negative") {
		t.Errorf("negative levels: unhelpful message %s", rec.Body)
	}
	rec = post(t, h, "/v1/mine", `{"values":[],"threshold":0.5}`)
	if !strings.Contains(rec.Body.String(), "values must not be empty") {
		t.Errorf("empty values: unhelpful message %s", rec.Body)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	rec := httptest.NewRecorder()
	quiet(Config{}).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/mine", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("status %d, want 405", rec.Code)
	}
}

func TestReadOnlyEndpointsRejectWrites(t *testing.T) {
	h := quiet(Config{})
	for _, path := range []string{"/healthz", "/readyz", "/metrics"} {
		for _, method := range []string{http.MethodPost, http.MethodPut, http.MethodDelete} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader("{}")))
			if rec.Code != http.StatusMethodNotAllowed {
				t.Errorf("%s %s: status %d, want 405", method, path, rec.Code)
			}
			if allow := rec.Header().Get("Allow"); allow != "GET, HEAD" {
				t.Errorf("%s %s: Allow = %q", method, path, allow)
			}
		}
		for _, method := range []string{http.MethodGet, http.MethodHead} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
			if rec.Code != http.StatusOK {
				t.Errorf("%s %s: status %d, want 200", method, path, rec.Code)
			}
		}
	}
}

func TestCandidatesBadMaxPeriod(t *testing.T) {
	rec := post(t, quiet(Config{}), "/v1/candidates", `{"symbols":"abab","threshold":0.5,"maxPeriod":100}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", rec.Code)
	}
}

func TestRequestEntityTooLarge(t *testing.T) {
	s := quiet(Config{MaxBodyBytes: 64})
	rec := post(t, s, "/v1/mine", `{"symbols":"`+strings.Repeat("ab", 200)+`","threshold":0.5}`)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "64-byte limit") {
		t.Fatalf("unhelpful message: %s", rec.Body)
	}
}

func TestAdmissionControl(t *testing.T) {
	s := quiet(Config{MaxConcurrency: 1})
	if !s.gate.TryAcquire() { // occupy the only mining slot
		t.Fatal("fresh gate refused its first slot")
	}
	rec := post(t, s, "/v1/mine", `{"symbols":"abcabbabcb","threshold":0.66}`)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	s.gate.Release() // free the slot; the same request must now succeed
	rec = post(t, s, "/v1/mine", `{"symbols":"abcabbabcb","threshold":0.66}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("after release: status %d: %s", rec.Code, rec.Body)
	}
	// Cheap endpoints are never shed.
	if !s.gate.TryAcquire() {
		t.Fatal("released gate refused a slot")
	}
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz under load: status %d", rec.Code)
	}
	s.gate.Release()
}

func TestRequestTimeout504(t *testing.T) {
	s := quiet(Config{RequestTimeout: time.Millisecond})
	rec := post(t, s, "/v1/mine", largeSeriesBody(200000))
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", rec.Code, rec.Body.String()[:min(200, rec.Body.Len())])
	}
}

func TestClientCancel499(t *testing.T) {
	s := quiet(Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/mine",
		strings.NewReader(`{"symbols":"abcabbabcb","threshold":0.66}`)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != StatusClientClosedRequest {
		t.Fatalf("status %d, want 499: %s", rec.Code, rec.Body)
	}
	if got := s.Metrics().Endpoint("/v1/mine").Requests("4xx"); got == 0 {
		t.Fatal("499 not recorded in the 4xx class")
	}
}

// TestClientDisconnectStopsMining proves the acceptance property end to end:
// a mid-mine disconnect causes the handler to stop work and return promptly,
// long before the full mine would have completed.
func TestClientDisconnectStopsMining(t *testing.T) {
	s := quiet(Config{})
	body := largeSeriesBody(400000)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan int, 1)
	go func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/mine", strings.NewReader(body)).WithContext(ctx)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		done <- rec.Code
	}()
	time.Sleep(100 * time.Millisecond) // let the mine get going
	cancel()                           // client disconnects
	start := time.Now()
	select {
	case code := <-done:
		if code != StatusClientClosedRequest {
			t.Fatalf("status %d, want 499", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("handler still mining 5s after client disconnect")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("handler took %v to notice the disconnect", elapsed)
	}
}

func TestWriteMineErrorMapping(t *testing.T) {
	s := quiet(Config{})
	cases := []struct {
		err  error
		want int
	}{
		{context.Canceled, StatusClientClosedRequest},
		{fmt.Errorf("mine: %w", context.Canceled), StatusClientClosedRequest},
		{context.DeadlineExceeded, http.StatusGatewayTimeout},
		{periodica.ErrInvalidInput, http.StatusBadRequest},
		{fmt.Errorf("wrapped: %w", periodica.ErrInvalidInput), http.StatusBadRequest},
		{errors.New("disk on fire"), http.StatusInternalServerError},
	}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		s.writeMineError(rec, httptest.NewRequest(http.MethodPost, "/v1/mine", nil), c.err)
		if rec.Code != c.want {
			t.Errorf("%v: status %d, want %d", c.err, rec.Code, c.want)
		}
	}
	// Internal details must not leak to the client.
	rec := httptest.NewRecorder()
	s.writeMineError(rec, httptest.NewRequest(http.MethodPost, "/v1/mine", nil), errors.New("disk on fire"))
	if strings.Contains(rec.Body.String(), "disk on fire") {
		t.Fatalf("500 leaked internals: %s", rec.Body)
	}
}

func TestReadyzFlipsDuringDrain(t *testing.T) {
	s := quiet(Config{})
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("ready: status %d", rec.Code)
	}
	s.SetReady(false)
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining: status %d, want 503", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "draining") {
		t.Fatalf("draining body %s", rec.Body)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := quiet(Config{})
	if rec := post(t, s, "/v1/mine", `{"symbols":"abcabbabcb","threshold":0.66}`); rec.Code != 200 {
		t.Fatalf("mine: %d", rec.Code)
	}
	if rec := post(t, s, "/v1/mine", `{"threshold":0.5}`); rec.Code != 400 {
		t.Fatalf("bad mine: %d", rec.Code)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: status %d", rec.Code)
	}
	text := rec.Body.String()
	for _, line := range []string{
		`periodica_http_requests_total{endpoint="/v1/mine",class="2xx"} 1`,
		`periodica_http_requests_total{endpoint="/v1/mine",class="4xx"} 1`,
		`periodica_http_in_flight 1`, // the /metrics request itself
		`periodica_mine_duration_seconds_count{endpoint="/v1/mine"} 1`,
		`periodica_http_request_duration_seconds_bucket{endpoint="/v1/mine"`,
		// The exec pipeline behind the mine reports per-stage durations and
		// its queue depth (0 when idle) through the same registry.
		`# TYPE periodica_exec_queue_depth gauge`,
		`periodica_exec_queue_depth 0`,
		`# TYPE periodica_stage_duration_seconds histogram`,
		`periodica_stage_duration_seconds_bucket{stage="detect"`,
		`periodica_stage_duration_seconds_count{stage="sweep"}`,
		`periodica_stage_duration_seconds_count{stage="resolve"}`,
		`periodica_stage_duration_seconds_count{stage="enumerate"}`,
		// The FFT kernel counters render with their full label set (zero or
		// not) — a stable schema whether or not this process has run an FFT.
		`# TYPE periodica_fft_kernel_total counter`,
		`periodica_fft_kernel_total{kernel="radix2"}`,
		`periodica_fft_kernel_total{kernel="real"}`,
		`periodica_fft_kernel_total{kernel="batch"}`,
	} {
		if !strings.Contains(text, line) {
			t.Errorf("metrics missing %q:\n%s", line, text)
		}
	}
}

func TestRequestIDPropagation(t *testing.T) {
	s := quiet(Config{})
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	req.Header.Set("X-Request-Id", "caller-chosen-id")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if got := rec.Header().Get("X-Request-Id"); got != "caller-chosen-id" {
		t.Fatalf("X-Request-Id = %q, want the caller's", got)
	}
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if got := rec.Header().Get("X-Request-Id"); len(got) != 16 {
		t.Fatalf("generated X-Request-Id = %q, want 16 hex chars", got)
	}
}

func TestAccessLogFields(t *testing.T) {
	var buf strings.Builder
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	s := New(Config{Logger: logger})
	rec := post(t, s, "/v1/mine", `{"symbols":"abcabbabcb","threshold":0.66}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	line := buf.String()
	for _, field := range []string{"id=", "method=POST", "path=/v1/mine", "status=200", "duration="} {
		if !strings.Contains(line, field) {
			t.Errorf("access log missing %q: %s", field, line)
		}
	}
}

func TestPprofGatedByFlag(t *testing.T) {
	off := quiet(Config{})
	rec := httptest.NewRecorder()
	off.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("pprof off: status %d, want 404", rec.Code)
	}
	on := quiet(Config{EnablePprof: true})
	rec = httptest.NewRecorder()
	on.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("pprof on: status %d, want 200", rec.Code)
	}
}

// TestGracefulShutdown drives Run end to end: an in-flight request survives
// the drain, /readyz flips to 503 while draining, and Run returns nil.
func TestGracefulShutdown(t *testing.T) {
	s := quiet(Config{})
	started := make(chan struct{})
	release := make(chan struct{})
	mux := http.NewServeMux()
	mux.Handle("/", s)
	mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		close(started)
		<-release
		w.WriteHeader(http.StatusOK)
		_, _ = io.WriteString(w, "slow done")
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: mux}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- s.Run(ctx, hs, ln, 10*time.Second) }()

	base := "http://" + ln.Addr().String()
	slowDone := make(chan error, 1)
	go func() {
		resp, err := http.Get(base + "/slow")
		if err != nil {
			slowDone <- err
			return
		}
		defer func() { _ = resp.Body.Close() }()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK || string(body) != "slow done" {
			slowDone <- fmt.Errorf("slow request: status %d body %q", resp.StatusCode, body)
			return
		}
		slowDone <- nil
	}()

	<-started
	cancel() // begin the drain with the slow request still in flight

	// While draining, readiness must report 503 (existing connections are
	// still served; new ones may be refused, which is also a valid drain
	// behaviour — accept either, but a 200 is a bug).
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp, err := http.Get(base + "/readyz")
		if err != nil {
			break // listener already closed: fine
		}
		code := resp.StatusCode
		retryAfter := resp.Header.Get("Retry-After")
		_ = resp.Body.Close()
		if code == http.StatusServiceUnavailable {
			if retryAfter == "" {
				t.Fatal("drain 503 without Retry-After")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("readyz still %d during drain", code)
		}
		time.Sleep(10 * time.Millisecond)
	}

	select {
	case err := <-runDone:
		t.Fatalf("Run returned %v before the in-flight request finished", err)
	case <-time.After(100 * time.Millisecond):
	}

	close(release)
	if err := <-slowDone; err != nil {
		t.Fatalf("in-flight request did not complete during drain: %v", err)
	}
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("Run = %v, want nil after clean drain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after drain")
	}
}
