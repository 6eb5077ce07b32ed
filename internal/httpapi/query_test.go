package httpapi

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"periodica"
)

// TestMineQueryRequest: a query-driven request must produce the exact bytes
// the library's MineQueryContext encodes for the same series and query.
func TestMineQueryRequest(t *testing.T) {
	rec := post(t, quiet(Config{}), "/v1/mine", `{"symbols":"abcabbabcb","query":"conf >= 0.66"}`)
	if rec.Code != 200 {
		t.Fatalf("query status %d: %s", rec.Code, rec.Body)
	}
	s, err := periodica.NewSeriesFromString("abcabbabcb")
	if err != nil {
		t.Fatal(err)
	}
	if want := libraryBody(t, s, "conf >= 0.66"); rec.Body.String() != want {
		t.Errorf("served body differs from the library mine:\n%s\nvs\n%s", rec.Body, want)
	}
}

// libraryBody mines s under src in process and encodes the result as the
// server's response writer does.
func libraryBody(t *testing.T, s *periodica.Series, src string) string {
	t.Helper()
	q, err := periodica.CompileQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := periodica.MineQueryContext(context.Background(), s, q)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := json.NewEncoder(&b).Encode(res); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestMineQueryWorkersClause: "workers N" only widens the mine's scheduler
// (capped at GOMAXPROCS), so a request asking for far more workers than
// cores returns the exact bytes of the same query without the clause.
func TestMineQueryWorkersClause(t *testing.T) {
	h := quiet(Config{})
	symbols := strings.Repeat("abcabbabcb", 100)
	const q = "conf >= 0.6 and pairs >= 3 and pattern period <= 21"
	serial := post(t, h, "/v1/mine", fmt.Sprintf(`{"symbols":%q,"query":%q}`, symbols, q))
	wide := post(t, h, "/v1/mine", fmt.Sprintf(`{"symbols":%q,"query":%q}`, symbols, q+" and workers 64"))
	if serial.Code != 200 || wide.Code != 200 {
		t.Fatalf("status %d / %d: %s %s", serial.Code, wide.Code, serial.Body, wide.Body)
	}
	var res periodica.Result
	if err := json.Unmarshal(serial.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Periodicities) == 0 || len(res.Patterns) == 0 {
		t.Fatal("fixture mined nothing; the comparison is vacuous")
	}
	if serial.Body.String() != wide.Body.String() {
		t.Error("workers 64 changed the response bytes")
	}
}

// TestMineQueryLevels: the levels clause discretizes a values request into
// that many equal-width levels.
func TestMineQueryLevels(t *testing.T) {
	values := []float64{1, 5, 9, 1, 5, 9, 1, 5, 9, 1, 5, 9}
	rec := post(t, quiet(Config{}), "/v1/mine", `{"values":[1,5,9,1,5,9,1,5,9,1,5,9],"query":"conf >= 1 and levels 3"}`)
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	s, err := periodica.DiscretizeEqualWidth(values, 3)
	if err != nil {
		t.Fatal(err)
	}
	if want := libraryBody(t, s, "conf >= 1"); rec.Body.String() != want {
		t.Errorf("levels clause result differs from a 3-level equal-width mine:\n%s\nvs\n%s", rec.Body, want)
	}
}

// TestMineQueryConflict: a body that carries a query next to a removed
// option field is a 400 naming the field, never a silent merge.
func TestMineQueryConflict(t *testing.T) {
	rec := post(t, quiet(Config{}), "/v1/mine",
		`{"symbols":"abcabbabcb","query":"conf >= 0.66","threshold":0.5}`)
	if rec.Code != 400 {
		t.Fatalf("status %d, want 400: %s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), `unknown field \"threshold\"`) {
		t.Errorf("conflict message unhelpful: %s", rec.Body)
	}
}

// TestMineBadQuery: compile errors surface as a 400 with the compiler's
// positioned message in the error envelope.
func TestMineBadQuery(t *testing.T) {
	h := quiet(Config{})
	for _, body := range []string{
		`{"symbols":"abab","query":"conf >="}`,
		`{"symbols":"abab","query":"conf >= 2"}`,
		`{"symbols":"abab","query":"bogus 1"}`,
	} {
		rec := post(t, h, "/v1/mine", body)
		if rec.Code != 400 {
			t.Errorf("%s: status %d, want 400", body, rec.Code)
		}
		var er ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
			t.Errorf("%s: error envelope missing: %s", body, rec.Body)
		}
	}
}

// TestDefaultQueryApplied: a request without a query inherits the server's
// default query; an explicit query overrides it entirely.
func TestDefaultQueryApplied(t *testing.T) {
	withDefault := quiet(Config{DefaultQuery: "conf >= 0.66"})
	explicit := post(t, quiet(Config{}), "/v1/mine", `{"symbols":"abcabbabcb","query":"conf >= 0.66"}`)
	bare := post(t, withDefault, "/v1/mine", `{"symbols":"abcabbabcb"}`)
	if bare.Code != 200 {
		t.Fatalf("bare request status %d: %s", bare.Code, bare.Body)
	}
	if bare.Body.String() != explicit.Body.String() {
		t.Errorf("default query result differs from its explicit spelling:\n%s\nvs\n%s", bare.Body, explicit.Body)
	}

	// An explicit query must win over the default query, not merge with it.
	strict := post(t, withDefault, "/v1/mine", `{"symbols":"abcabbabcb","query":"conf >= 1"}`)
	strictDirect := post(t, quiet(Config{}), "/v1/mine", `{"symbols":"abcabbabcb","query":"conf >= 1"}`)
	if strict.Code != 200 || strict.Body.String() != strictDirect.Body.String() {
		t.Errorf("an explicit query did not override the default query: %s", strict.Body)
	}

	// Without a default, a request without a query is a 400 naming it.
	none := post(t, quiet(Config{}), "/v1/mine", `{"symbols":"abcabbabcb"}`)
	if none.Code != 400 || !strings.Contains(none.Body.String(), "query required") {
		t.Errorf("request without a query or a default: status %d, want 400 naming the query: %s", none.Code, none.Body)
	}
}

// TestCandidatesQueryRequest: /v1/candidates accepts the same query field
// and echoes the query's threshold.
func TestCandidatesQueryRequest(t *testing.T) {
	rec := post(t, quiet(Config{}), "/v1/candidates",
		`{"symbols":"`+strings.Repeat("abcd", 50)+`","query":"conf >= 1"}`)
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var res CandidatesResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Threshold != 1 {
		t.Errorf("threshold echo %v, want 1", res.Threshold)
	}
	has4 := false
	for _, p := range res.Periods {
		if p == 4 {
			has4 = true
		}
	}
	if !has4 {
		t.Errorf("period 4 missing: %v", res.Periods)
	}
}

// TestResolveQueryGoldenLegacyFields pins, for each option field the
// request body no longer accepts, the query clause that replaces it: the
// field alone is the decoder's unknown-field 400, and the clause resolves to
// the given canonical query.
func TestResolveQueryGoldenLegacyFields(t *testing.T) {
	s := quiet(Config{})
	cases := []struct {
		name, field, query, want string
	}{
		{"threshold", `"threshold":0.8`, "conf >= 0.8", "conf >= 0.8"},
		{"minPeriod", `"minPeriod":4`, "conf >= 0.5 and period >= 4", "conf >= 0.5 and period >= 4"},
		{"maxPeriod", `"maxPeriod":64`, "conf >= 0.5 and period <= 64", "conf >= 0.5 and period <= 64"},
		{"range", `"minPeriod":2,"maxPeriod":512`, "period in 2..512 and conf >= 0.5", "conf >= 0.5 and period in 2..512"},
		{"minPairs", `"minPairs":3`, "conf >= 0.5 and pairs >= 3", "conf >= 0.5 and pairs >= 3"},
		{"maximalOnly", `"maximalOnly":true`, "maximal only and conf >= 0.5", "conf >= 0.5 and maximal only"},
		{"maxPatternPeriod", `"maxPatternPeriod":21`, "conf >= 0.5 and pattern period <= 21", "conf >= 0.5 and pattern period <= 21"},
		{"levels", `"levels":3`, "levels 3 and conf >= 0.5", "conf >= 0.5 and levels 3"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := post(t, s, "/v1/mine", `{"symbols":"abcabbabcb",`+tc.field+`}`)
			if rec.Code != 400 || !strings.Contains(rec.Body.String(), "unknown field") {
				t.Errorf("body with %s: status %d, want the unknown-field 400: %s", tc.field, rec.Code, rec.Body)
			}
			rec = httptest.NewRecorder()
			q, ok := s.resolveQuery(rec, &MineRequest{Query: tc.query})
			if !ok {
				t.Fatalf("resolveQuery failed: %s", rec.Body)
			}
			if got := q.String(); got != tc.want {
				t.Errorf("%q resolves to %q, want %q", tc.query, got, tc.want)
			}
		})
	}
}
