package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"periodica/internal/alphabet"
	"periodica/internal/core"
	"periodica/internal/series"
)

// shardBody marshals a ShardRequest for the test server.
func shardBody(t *testing.T, req ShardRequest) string {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// withSurvivors returns req carrying the survivor set a coordinator ships
// with it: the sweep over the request's series and period band, clipped to
// its symbol range.
func withSurvivors(t testing.TB, req ShardRequest) ShardRequest {
	t.Helper()
	alpha, err := alphabet.New(req.Alphabet...)
	if err != nil {
		t.Fatal(err)
	}
	ser, err := series.FromAlphabetText(alpha, req.Symbols)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := shardOptions(&req)
	if err != nil {
		t.Fatal(err)
	}
	surv, err := core.ShardSurvivors(context.Background(), ser, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i, list := range surv {
		var clipped []int32
		for _, k := range list {
			if int(k) >= req.SymbolLo && int(k) < req.SymbolHi {
				clipped = append(clipped, k)
			}
		}
		surv[i] = clipped
	}
	req.Survivors = surv
	return req
}

// TestShardEndpoint: the endpoint must return exactly the slots
// core.MineShardSlotsFromSurvivors computes — including under an alphabet
// with a symbol the text never uses, which pins the explicit-alphabet wire
// decode.
func TestShardEndpoint(t *testing.T) {
	text := strings.Repeat("abcabbabcb", 10)
	req := withSurvivors(t, ShardRequest{
		ShardID:  42,
		Alphabet: []string{"a", "b", "c", "d"}, // d never occurs
		Symbols:  text,
		Query:    "conf >= 0.6", MinPeriod: 1, MaxPeriod: 20,
		SymbolLo: 0, SymbolHi: 4,
	})
	rec := post(t, quiet(Config{}), "/v1/shard", shardBody(t, req))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp ShardResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ShardID != 42 {
		t.Fatalf("shard id %d, want 42", resp.ShardID)
	}

	alpha := alphabet.MustNew("a", "b", "c", "d")
	ser, err := series.FromAlphabetText(alpha, text)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.MineShardSlotsFromSurvivors(context.Background(), ser,
		core.Options{Threshold: 0.6, MinPeriod: 1, MaxPeriod: 20}, 0, 4, req.Survivors)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("fixture produced no slots; the test is vacuous")
	}
	got := make([]core.SymbolPeriodicity, 0, len(resp.Slots))
	for _, sl := range resp.Slots {
		got = append(got, core.SymbolPeriodicity{
			Symbol: sl.Symbol, Period: sl.Period, Position: sl.Position,
			F2: sl.F2, Pairs: sl.Pairs,
			Confidence: float64(sl.F2) / float64(sl.Pairs),
		})
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("endpoint slots differ from MineShardSlotsFromSurvivors:\nwant %v\ngot  %v", want, got)
	}
}

func TestShardBadRequests(t *testing.T) {
	h := quiet(Config{})
	base := withSurvivors(t, ShardRequest{
		Alphabet: []string{"a", "b"}, Symbols: "abababab",
		Query: "conf >= 0.5", MinPeriod: 1, MaxPeriod: 4, SymbolLo: 0, SymbolHi: 2,
	})
	if rec := post(t, h, "/v1/shard", shardBody(t, base)); rec.Code != http.StatusOK {
		t.Fatalf("base request: status %d, want 200: %s", rec.Code, rec.Body)
	}
	mutate := func(f func(*ShardRequest)) string {
		req := base
		req.Alphabet = append([]string(nil), base.Alphabet...)
		f(&req)
		return shardBody(t, req)
	}
	cases := map[string]string{
		"empty alphabet":        mutate(func(r *ShardRequest) { r.Alphabet = nil }),
		"duplicate alphabet":    mutate(func(r *ShardRequest) { r.Alphabet = []string{"a", "a"} }),
		"rune not in alphabet":  mutate(func(r *ShardRequest) { r.Symbols = "abxab" }),
		"empty symbols":         mutate(func(r *ShardRequest) { r.Symbols = "" }),
		"missing query":         mutate(func(r *ShardRequest) { r.Query = "" }),
		"unknown engine":        mutate(func(r *ShardRequest) { r.Query = "conf >= 0.5 and engine quantum" }),
		"bad threshold":         mutate(func(r *ShardRequest) { r.Query = "conf >= 0" }),
		"inverted symbol range": mutate(func(r *ShardRequest) { r.SymbolLo, r.SymbolHi = 2, 1 }),
		"symbol range too wide": mutate(func(r *ShardRequest) { r.SymbolHi = 5 }),
		"bad period band":       mutate(func(r *ShardRequest) { r.MinPeriod, r.MaxPeriod = 4, 100 }),
		"missing survivors":     mutate(func(r *ShardRequest) { r.Survivors = nil }),
		"unknown field":         `{"alphabet":["a","b"],"symbols":"abab","query":"conf >= 0.5","bogus":1}`,
		"invalid json":          `{`,
	}
	for name, body := range cases {
		rec := post(t, h, "/v1/shard", body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", name, rec.Code, rec.Body)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/shard", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d, want 405", rec.Code)
	}
}

// TestShardClientRoundTrip drives the client against a real worker server.
func TestShardClientRoundTrip(t *testing.T) {
	worker := httptest.NewServer(quiet(Config{}))
	defer worker.Close()
	var c ShardClient
	req := withSurvivors(t, ShardRequest{
		ShardID: 7, Alphabet: []string{"a", "b", "c"}, Symbols: strings.Repeat("abcabbabcb", 5),
		Query: "conf >= 0.6", MinPeriod: 1, MaxPeriod: 10, SymbolLo: 0, SymbolHi: 3,
	})
	resp, err := c.MineShard(context.Background(), worker.URL, &req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ShardID != 7 || len(resp.Slots) == 0 {
		t.Fatalf("response %+v", resp)
	}
}

// TestShardClientStatusErrors: a shed worker (429) is retryable, a rejected
// request (400) is not, and both surface as WorkerStatusError.
func TestShardClientStatusErrors(t *testing.T) {
	s := quiet(Config{MaxConcurrency: 1})
	worker := httptest.NewServer(s)
	defer worker.Close()
	var c ShardClient
	goodReq := withSurvivors(t, ShardRequest{
		ShardID: 1, Alphabet: []string{"a", "b"}, Symbols: "abababab",
		Query: "conf >= 0.5", MinPeriod: 1, MaxPeriod: 4, SymbolLo: 0, SymbolHi: 2,
	})
	good := &goodReq

	if !s.gate.TryAcquire() {
		t.Fatal("fresh gate refused its first slot")
	}
	_, err := c.MineShard(context.Background(), worker.URL, good)
	s.gate.Release()
	var wse *WorkerStatusError
	if !errors.As(err, &wse) || wse.Status != http.StatusTooManyRequests || !wse.Retryable() {
		t.Fatalf("shed: err = %v, want retryable 429 WorkerStatusError", err)
	}

	bad := *good
	bad.Query = "conf >= 0"
	_, err = c.MineShard(context.Background(), worker.URL, &bad)
	if !errors.As(err, &wse) || wse.Status != http.StatusBadRequest || wse.Retryable() {
		t.Fatalf("rejected: err = %v, want non-retryable 400 WorkerStatusError", err)
	}
}

// TestShardResponseStampedAndVerifiable: the worker stamps its response with
// the request echoes and a checksum the client's acceptance rule verifies.
func TestShardResponseStampedAndVerifiable(t *testing.T) {
	req := withSurvivors(t, ShardRequest{
		ShardID: 9, Alphabet: []string{"a", "b", "c"}, Symbols: strings.Repeat("abcabbabcb", 5),
		Query: "conf >= 0.6", MinPeriod: 2, MaxPeriod: 8, SymbolLo: 1, SymbolHi: 3,
	})
	rec := post(t, quiet(Config{}), "/v1/shard", shardBody(t, req))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp ShardResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if err := VerifyShardResponse(&req, &resp); err != nil {
		t.Fatalf("worker's own response fails verification: %v", err)
	}
	if resp.MinPeriod != 2 || resp.MaxPeriod != 8 || resp.SymbolLo != 1 || resp.SymbolHi != 3 {
		t.Fatalf("echoes %+v do not match the request block", resp)
	}
	if resp.AlphaCRC != AlphabetCRC(req.Alphabet) {
		t.Fatal("alphabet hash echo differs from the request alphabet")
	}
}

// TestShardClientRejectsCorruptResponses: every corruption of a valid 200
// body must surface as ShardIntegrityError, never as a decoded response.
func TestShardClientRejectsCorruptResponses(t *testing.T) {
	shipped := withSurvivors(t, ShardRequest{
		ShardID: 3, Alphabet: []string{"a", "b"}, Symbols: strings.Repeat("abab", 10),
		Query: "conf >= 0.5", MinPeriod: 1, MaxPeriod: 6, SymbolLo: 0, SymbolHi: 2,
	})
	req := &shipped
	worker := httptest.NewServer(quiet(Config{}))
	defer worker.Close()
	var c ShardClient
	good, err := c.MineShard(context.Background(), worker.URL, req)
	if err != nil {
		t.Fatal(err)
	}
	pristine, err := json.Marshal(good)
	if err != nil {
		t.Fatal(err)
	}

	reencode := func(f func(*ShardResponse)) []byte {
		r := *good
		r.Slots = append([]ShardSlot(nil), good.Slots...)
		f(&r)
		b, err := json.Marshal(&r)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	cases := map[string][]byte{
		"truncated":          pristine[:len(pristine)/2],
		"not json":           []byte("<html>504 gateway</html>"),
		"slot value changed": reencode(func(r *ShardResponse) { r.Slots[0].F2++ }),
		"slot dropped":       reencode(func(r *ShardResponse) { r.Slots = r.Slots[1:] }),
		"wrong shard id": reencode(func(r *ShardResponse) {
			r.ShardID = 99
			r.Checksum = ShardChecksum(r) // internally consistent, wrong block
		}),
		"wrong band": reencode(func(r *ShardResponse) {
			r.MaxPeriod = 7
			r.Checksum = ShardChecksum(r)
		}),
		"wrong alphabet": reencode(func(r *ShardResponse) {
			r.AlphaCRC++
			r.Checksum = ShardChecksum(r)
		}),
		"checksum zeroed": reencode(func(r *ShardResponse) { r.Checksum = 0 }),
	}
	for name, body := range cases {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			_, _ = w.Write(body)
		}))
		_, err := c.MineShard(context.Background(), srv.URL, req)
		srv.Close()
		var ie *ShardIntegrityError
		if !errors.As(err, &ie) {
			t.Errorf("%s: err = %v, want ShardIntegrityError", name, err)
		}
	}
}

// TestShardClientParsesRetryAfter: integer seconds clamp to [1s,30s]; dates
// and garbage read as zero.
func TestShardClientParsesRetryAfter(t *testing.T) {
	cases := []struct {
		header string
		want   time.Duration
	}{
		{"3", 3 * time.Second},
		{"1", time.Second},
		{"9999", 30 * time.Second},
		{"0", 0},
		{"-5", 0},
		{"Wed, 21 Oct 2026 07:28:00 GMT", 0},
		{"", 0},
	}
	shipped := withSurvivors(t, ShardRequest{
		ShardID: 1, Alphabet: []string{"a"}, Symbols: "aaaa",
		Query: "conf >= 0.5", MinPeriod: 1, MaxPeriod: 2, SymbolLo: 0, SymbolHi: 1,
	})
	req := &shipped
	var c ShardClient
	for _, tc := range cases {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if tc.header != "" {
				w.Header().Set("Retry-After", tc.header)
			}
			w.WriteHeader(http.StatusTooManyRequests)
		}))
		_, err := c.MineShard(context.Background(), srv.URL, req)
		srv.Close()
		var wse *WorkerStatusError
		if !errors.As(err, &wse) {
			t.Fatalf("header %q: err = %v, want WorkerStatusError", tc.header, err)
		}
		if wse.RetryAfter != tc.want {
			t.Errorf("header %q: RetryAfter = %v, want %v", tc.header, wse.RetryAfter, tc.want)
		}
	}
}

// TestShardSurvivorsRequest: a shipped survivor set yields exactly the
// single-process mine's periodicities in the shard's cells, and malformed
// sets are rejected as bad requests.
func TestShardSurvivorsRequest(t *testing.T) {
	text := strings.Repeat("abcabbabcb", 10)
	base := withSurvivors(t, ShardRequest{
		ShardID: 5, Alphabet: []string{"a", "b", "c"}, Symbols: text,
		Query: "conf >= 0.6", MinPeriod: 2, MaxPeriod: 8, SymbolLo: 0, SymbolHi: 3,
	})
	h := quiet(Config{})
	rec := post(t, h, "/v1/shard", shardBody(t, base))
	if rec.Code != http.StatusOK {
		t.Fatalf("shipped status %d: %s", rec.Code, rec.Body)
	}
	var got ShardResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}

	alpha := alphabet.MustNew("a", "b", "c")
	ser, err := series.FromAlphabetText(alpha, text)
	if err != nil {
		t.Fatal(err)
	}
	single, err := core.MineContext(context.Background(), ser,
		core.Options{Threshold: 0.6, MinPeriod: 2, MaxPeriod: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(single.Periodicities) == 0 {
		t.Fatal("fixture produced no periodicities; the test is vacuous")
	}
	want := map[ShardSlot]bool{}
	for _, sp := range single.Periodicities {
		want[ShardSlot{Symbol: sp.Symbol, Period: sp.Period, Position: sp.Position, F2: sp.F2, Pairs: sp.Pairs}] = true
	}
	gotSet := map[ShardSlot]bool{}
	for _, sl := range got.Slots {
		gotSet[sl] = true
	}
	if len(gotSet) != len(got.Slots) || !reflect.DeepEqual(want, gotSet) {
		t.Fatalf("shipped-survivor slots differ from the single-process periodicities:\nwant %v\ngot  %v", want, got.Slots)
	}

	for name, surv := range map[string][][]int32{
		"missing":         nil,
		"wrong span":      {{0}},
		"symbol past hi":  {{0, 7}, {}, {}, {}, {}, {}, {}},
		"descending list": {{1, 0}, {}, {}, {}, {}, {}, {}},
	} {
		bad := base
		bad.Survivors = surv
		rec := post(t, h, "/v1/shard", shardBody(t, bad))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", name, rec.Code, rec.Body)
		}
	}
}

// TestRetryAfterComputed: the 429 Retry-After must scale with the observed
// mine durations and gate occupancy, clamped to [1, 60].
func TestRetryAfterComputed(t *testing.T) {
	cases := []struct {
		name string
		mean time.Duration
		want string
	}{
		{"no history", 0, "1"},
		{"5s mean", 5 * time.Second, "5"},
		{"clamped", 10 * time.Minute, "60"},
	}
	for _, c := range cases {
		s := quiet(Config{MaxConcurrency: 1})
		if c.mean > 0 {
			s.Metrics().Endpoint("/v1/mine").ObserveMine(c.mean)
		}
		if !s.gate.TryAcquire() {
			t.Fatal("fresh gate refused its first slot")
		}
		rec := post(t, s, "/v1/mine", `{"symbols":"abab","query":"conf >= 0.5"}`)
		s.gate.Release()
		if rec.Code != http.StatusTooManyRequests {
			t.Fatalf("%s: status %d, want 429", c.name, rec.Code)
		}
		if got := rec.Header().Get("Retry-After"); got != c.want {
			t.Errorf("%s: Retry-After = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestDrainRetryAfterWindow(t *testing.T) {
	s := quiet(Config{})
	s.drainSecs.Store(7)
	s.SetReady(false)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After = %q, want 7", got)
	}
}
