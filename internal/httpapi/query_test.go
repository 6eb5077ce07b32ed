package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"periodica"
)

// TestMineQueryRequest: a query-driven request must produce the exact bytes
// of its legacy-field spelling — resolveQuery collapses both onto one Spec.
func TestMineQueryRequest(t *testing.T) {
	h := quiet(Config{})
	legacy := post(t, h, "/v1/mine", `{"symbols":"abcabbabcb","threshold":0.66}`)
	if legacy.Code != 200 {
		t.Fatalf("legacy status %d: %s", legacy.Code, legacy.Body)
	}
	query := post(t, h, "/v1/mine", `{"symbols":"abcabbabcb","query":"conf >= 0.66"}`)
	if query.Code != 200 {
		t.Fatalf("query status %d: %s", query.Code, query.Body)
	}
	if legacy.Body.String() != query.Body.String() {
		t.Errorf("query-driven body differs from legacy-field body:\n%s\nvs\n%s", query.Body, legacy.Body)
	}
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

// TestMineQueryLevels: the levels clause discretizes a values request just
// like the legacy levels field.
func TestMineQueryLevels(t *testing.T) {
	h := quiet(Config{})
	legacy := post(t, h, "/v1/mine", `{"values":[1,5,9,1,5,9,1,5,9,1,5,9],"levels":3,"threshold":1}`)
	query := post(t, h, "/v1/mine", `{"values":[1,5,9,1,5,9,1,5,9,1,5,9],"query":"conf >= 1 and levels 3"}`)
	if legacy.Code != 200 || query.Code != 200 {
		t.Fatalf("status %d / %d: %s %s", legacy.Code, query.Code, legacy.Body, query.Body)
	}
	if legacy.Body.String() != query.Body.String() {
		t.Errorf("levels clause result differs from legacy levels field:\n%s\nvs\n%s", query.Body, legacy.Body)
	}
}

// TestMineQueryConflict: mixing the query string with legacy option fields
// has no sane precedence rule, so it is a 400.
func TestMineQueryConflict(t *testing.T) {
	rec := post(t, quiet(Config{}), "/v1/mine",
		`{"symbols":"abcabbabcb","query":"conf >= 0.66","threshold":0.5}`)
	if rec.Code != 400 {
		t.Fatalf("status %d, want 400: %s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "not both") {
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

// TestDefaultQueryApplied: a request with no mining parameters inherits the
// server's default query; any explicit parameter — query or legacy field —
// overrides it entirely.
func TestDefaultQueryApplied(t *testing.T) {
	withDefault := quiet(Config{DefaultQuery: "conf >= 0.66"})
	explicit := post(t, quiet(Config{}), "/v1/mine", `{"symbols":"abcabbabcb","threshold":0.66}`)
	bare := post(t, withDefault, "/v1/mine", `{"symbols":"abcabbabcb"}`)
	if bare.Code != 200 {
		t.Fatalf("bare request status %d: %s", bare.Code, bare.Body)
	}
	if bare.Body.String() != explicit.Body.String() {
		t.Errorf("default query result differs from its explicit spelling:\n%s\nvs\n%s", bare.Body, explicit.Body)
	}

	// A legacy threshold must win over the default query, not merge with it.
	strict := post(t, withDefault, "/v1/mine", `{"symbols":"abcabbabcb","threshold":1}`)
	strictDirect := post(t, quiet(Config{}), "/v1/mine", `{"symbols":"abcabbabcb","threshold":1}`)
	if strict.Code != 200 || strict.Body.String() != strictDirect.Body.String() {
		t.Errorf("legacy fields did not override the default query: %s", strict.Body)
	}

	// Without a default, a parameterless request is still an error (the
	// compiled query would be empty).
	none := post(t, quiet(Config{}), "/v1/mine", `{"symbols":"abcabbabcb"}`)
	if none.Code != 400 {
		t.Errorf("parameterless request without a default: status %d, want 400: %s", none.Code, none.Body)
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

// TestResolveQueryGoldenLegacyFields pins the canonical query each legacy
// MineRequest field lifts to — the wire-level counterpart of the public
// Options golden table.
func TestResolveQueryGoldenLegacyFields(t *testing.T) {
	s := quiet(Config{})
	cases := []struct {
		name string
		req  MineRequest
		want string
	}{
		{"threshold", MineRequest{Threshold: 0.8}, "conf >= 0.8"},
		{"minPeriod", MineRequest{Threshold: 0.5, MinPeriod: 4}, "conf >= 0.5 and period >= 4"},
		{"maxPeriod", MineRequest{Threshold: 0.5, MaxPeriod: 64}, "conf >= 0.5 and period <= 64"},
		{"range", MineRequest{Threshold: 0.5, MinPeriod: 2, MaxPeriod: 512}, "conf >= 0.5 and period in 2..512"},
		{"minPairs", MineRequest{Threshold: 0.5, MinPairs: 3}, "conf >= 0.5 and pairs >= 3"},
		{"maximalOnly", MineRequest{Threshold: 0.5, MaximalOnly: true}, "conf >= 0.5 and maximal only"},
		{"maxPatternPeriod", MineRequest{Threshold: 0.5, MaxPatternPeriod: 21}, "conf >= 0.5 and pattern period <= 21"},
		{"levels", MineRequest{Threshold: 0.5, Levels: 3}, "conf >= 0.5 and levels 3"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			q, ok := s.resolveQuery(rec, &tc.req)
			if !ok {
				t.Fatalf("resolveQuery failed: %s", rec.Body)
			}
			if got := q.String(); got != tc.want {
				t.Errorf("legacy fields %+v lift to %q, want %q", tc.req, got, tc.want)
			}
		})
	}
}
