package httpapi

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"periodica/internal/alphabet"
	"periodica/internal/core"
	"periodica/internal/series"
)

// shardBody encodes a ShardRequest frame for the test server.
func shardBody(t *testing.T, req ShardRequest) string {
	t.Helper()
	return string(EncodeShardRequest(&req))
}

// shardReply verifies a handler's 200 body as the answer to req.
func shardReply(t *testing.T, req ShardRequest, rec *httptest.ResponseRecorder) *ShardResponse {
	t.Helper()
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	resp, err := VerifyShardResponse(EncodeShardRequest(&req), rec.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return resp
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
	resp := shardReply(t, req, post(t, quiet(Config{}), "/v1/shard", shardBody(t, req)))

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
		"invalid json":          `{`,
		"truncated frame":       mutate(func(*ShardRequest) {})[:40],
		"empty body":            ``,
	}
	flipped := []byte(mutate(func(*ShardRequest) {}))
	flipped[len(flipped)/2] ^= 0x10
	cases["bit-flipped frame"] = string(flipped)
	for name, body := range cases {
		rec := post(t, h, "/v1/shard", body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", name, rec.Code, rec.Body)
		}
	}
	// The old JSON wire is refused by name: the worker speaks frame v1 only.
	old, err := json.Marshal(map[string]any{
		"shardId": 0, "alphabet": base.Alphabet, "symbols": base.Symbols, "query": base.Query,
		"minPeriod": base.MinPeriod, "maxPeriod": base.MaxPeriod, "symbolLo": 0, "symbolHi": 2,
		"survivors": base.Survivors,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := post(t, h, "/v1/shard", string(old))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "shard request frame v1") {
		t.Errorf("JSON body: status %d, want 400 naming the frame version: %s", rec.Code, rec.Body)
	}
	rec = httptest.NewRecorder()
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
	resp, err := c.MineShard(context.Background(), worker.URL, EncodeShardRequest(&req))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Slots) == 0 {
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
	good := EncodeShardRequest(&goodReq)

	if !s.gate.TryAcquire() {
		t.Fatal("fresh gate refused its first slot")
	}
	_, err := c.MineShard(context.Background(), worker.URL, good)
	s.gate.Release()
	var wse *WorkerStatusError
	if !errors.As(err, &wse) || wse.Status != http.StatusTooManyRequests || !wse.Retryable() {
		t.Fatalf("shed: err = %v, want retryable 429 WorkerStatusError", err)
	}

	bad := goodReq
	bad.Query = "conf >= 0"
	_, err = c.MineShard(context.Background(), worker.URL, EncodeShardRequest(&bad))
	if !errors.As(err, &wse) || wse.Status != http.StatusBadRequest || wse.Retryable() {
		t.Fatalf("rejected: err = %v, want non-retryable 400 WorkerStatusError", err)
	}
}

// TestShardResponseStampedAndVerifiable: the worker stamps its response with
// the request frame's CRC and a CRC of its own that the client's acceptance
// rule verifies.
func TestShardResponseStampedAndVerifiable(t *testing.T) {
	req := withSurvivors(t, ShardRequest{
		ShardID: 9, Alphabet: []string{"a", "b", "c"}, Symbols: strings.Repeat("abcabbabcb", 5),
		Query: "conf >= 0.6", MinPeriod: 2, MaxPeriod: 8, SymbolLo: 1, SymbolHi: 3,
	})
	frame := EncodeShardRequest(&req)
	rec := post(t, quiet(Config{}), "/v1/shard", string(frame))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	resp, err := VerifyShardResponse(frame, rec.Body.Bytes())
	if err != nil {
		t.Fatalf("worker's own response fails verification: %v", err)
	}
	if !bytes.Equal(resp.Frame[4:8], frame[len(frame)-4:]) {
		t.Fatalf("echo %x differs from the request frame's CRC %x", resp.Frame[4:8], frame[len(frame)-4:])
	}
}

// reframe recomputes a frame's trailing CRC, so a test can build frames that
// are internally consistent but wrong in some other way.
func reframe(frame []byte) []byte {
	out := append([]byte(nil), frame[:len(frame)-4]...)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, shardCRCTable))
}

// TestShardClientRejectsCorruptResponses: every corruption of a valid 200
// body, and every well-formed answer to a different request, must surface as
// ShardIntegrityError, never as a decoded response.
func TestShardClientRejectsCorruptResponses(t *testing.T) {
	shipped := withSurvivors(t, ShardRequest{
		ShardID: 3, Alphabet: []string{"a", "b"}, Symbols: strings.Repeat("abab", 10),
		Query: "conf >= 0.5", MinPeriod: 1, MaxPeriod: 6, SymbolLo: 0, SymbolHi: 2,
	})
	frame := EncodeShardRequest(&shipped)
	worker := httptest.NewServer(quiet(Config{}))
	defer worker.Close()
	var c ShardClient
	good, err := c.MineShard(context.Background(), worker.URL, frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(good.Slots) < 2 {
		t.Fatalf("fixture answered %d slots; the slot cases are vacuous", len(good.Slots))
	}
	pristine := good.Frame
	edit := func(f func([]byte) []byte) []byte { return f(append([]byte(nil), pristine...)) }
	// answerTo is the frame that correctly answers a different request.
	answerTo := func(f func(*ShardRequest)) []byte {
		other := shipped
		f(&other)
		return EncodeShardResponse(EncodeShardRequest(&other), good.Slots)
	}
	oldJSON, err := json.Marshal(map[string]any{"shardId": 3, "slots": good.Slots, "checksum": 0})
	if err != nil {
		t.Fatal(err)
	}
	// A different series under the same shard ID, band, alphabet and query:
	// no field-by-field echo covered the series text, the frame's echo does.
	otherSeries := withSurvivors(t, ShardRequest{
		ShardID: 3, Alphabet: []string{"a", "b"}, Symbols: strings.Repeat("aabb", 10),
		Query: "conf >= 0.5", MinPeriod: 1, MaxPeriod: 6, SymbolLo: 0, SymbolHi: 2,
	})
	mined, err := c.MineShard(context.Background(), worker.URL, EncodeShardRequest(&otherSeries))
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string][]byte{
		"truncated":          pristine[:len(pristine)/2],
		"empty":              {},
		"not a frame":        []byte("<html>504 gateway</html>"),
		"json (old wire)":    oldJSON,
		"bad magic":          reframe(edit(func(b []byte) []byte { b[0] = 'X'; return b })),
		"bad version":        reframe(edit(func(b []byte) []byte { b[3] = 2; return b })),
		"request frame":      frame,
		"slot value changed": edit(func(b []byte) []byte { b[24]++; return b }),
		"slot dropped": edit(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:], uint32(len(good.Slots)-1))
			return append(b[:12], b[12+shardSlotBytes:]...)
		}),
		"trailing bytes": reframe(edit(func(b []byte) []byte {
			return append(b[:len(b)-4], 0, 0, 0, 0, 0)
		})),
		"2^31 slots": reframe(edit(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:], 1<<31)
			return b
		})),
		"checksum zeroed":         edit(func(b []byte) []byte { clear(b[len(b)-4:]); return b }),
		"echo mismatch: shard id": answerTo(func(r *ShardRequest) { r.ShardID = 99 }),
		"echo mismatch: band":     answerTo(func(r *ShardRequest) { r.MaxPeriod = 7 }),
		"echo mismatch: alphabet": answerTo(func(r *ShardRequest) { r.Alphabet = []string{"b", "a"} }),
		"echo mismatch: query":    answerTo(func(r *ShardRequest) { r.Query = "conf >= 0.6" }),
		"different series":        mined.Frame,
	}
	for name, body := range cases {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			_, _ = w.Write(body)
		}))
		_, err := c.MineShard(context.Background(), srv.URL, frame)
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
	req := EncodeShardRequest(&shipped)
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
	got := shardReply(t, base, post(t, h, "/v1/shard", shardBody(t, base)))

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

// TestShardFrameRoundTrip: decoding an encoded frame gives back what was
// encoded, in both directions — including zero slots, empty survivor lists
// and multi-byte symbols.
func TestShardFrameRoundTrip(t *testing.T) {
	reqs := []ShardRequest{
		{ShardID: 0, Alphabet: []string{"a"}, Symbols: "a", Query: "conf >= 0.5"},
		{
			ShardID: 12, Alphabet: []string{"α", "βγ", "🙂", "d"}, Symbols: "αβγ🙂dα",
			Query: "conf >= 0.6 and pairs >= 2", MinPeriod: 3, MaxPeriod: 6, SymbolLo: 1, SymbolHi: 4,
			Survivors: [][]int32{nil, {1, 3}, nil, {2}},
		},
		{ShardID: 1<<32 - 1, Alphabet: []string{""}, MinPeriod: 1, MaxPeriod: 1, Survivors: [][]int32{nil}},
	}
	for _, req := range reqs {
		frame := EncodeShardRequest(&req)
		got, err := DecodeShardRequest(frame)
		if err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
		if !reflect.DeepEqual(*got, req) {
			t.Fatalf("request round trip:\nsent %+v\ngot  %+v", req, *got)
		}
		for _, slots := range [][]ShardSlot{{}, {{Symbol: 3, Period: 4, Position: 2, F2: 9, Pairs: 1<<32 - 1}, {}}} {
			resp, err := VerifyShardResponse(frame, EncodeShardResponse(frame, slots))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(resp.Slots, slots) {
				t.Fatalf("response round trip: sent %v, got %v", slots, resp.Slots)
			}
		}
	}
}

// TestShardFrameHugeCountsAllocateNothing: a well-formed frame whose count
// claims 2^31 elements is rejected before anything is sized from the count.
func TestShardFrameHugeCountsAllocateNothing(t *testing.T) {
	req := ShardRequest{ShardID: 1, Alphabet: []string{"a", "b"}, Symbols: "abab",
		Query: "conf >= 0.5", MinPeriod: 1, MaxPeriod: 2, SymbolHi: 2, Survivors: [][]int32{{0}, {1}}}
	frame := EncodeShardRequest(&req)
	decoders := map[string]func() error{
		"alphabet count": func() error { _, err := DecodeShardRequest(hugeCount(frame, 24)); return err },
		"symbol length":  func() error { _, err := DecodeShardRequest(hugeCount(frame, 28)); return err },
		"survivor count": func() error {
			_, err := DecodeShardRequest(hugeCount(frame, survivorCountOffset(&req)))
			return err
		},
		"slot count": func() error {
			_, err := VerifyShardResponse(frame, hugeCount(EncodeShardResponse(frame, nil), 8))
			return err
		},
	}
	for name, decode := range decoders {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := decode()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: a 2^31 count decoded", name)
		}
		if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<16 {
			t.Errorf("%s: decoding allocated %d bytes", name, grown)
		}
	}
}
