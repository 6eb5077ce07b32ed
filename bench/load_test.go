package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
)

// TestCheckerCatchesTamperedBody serves a correct answer, the same answer
// with one byte changed, and an error status, and checks that the client's
// correctness gate passes only the first.
func TestCheckerCatchesTamperedBody(t *testing.T) {
	want := []byte(`{"Periods":[25,50],"Periodicities":[{"Symbol":"a","Period":25}]}` + "\n")
	tampered := bytes.Clone(want)
	tampered[bytes.IndexByte(tampered, '5')] = '6' // period 25 becomes 26

	for _, c := range []struct {
		name   string
		status int
		body   []byte
		ok     bool
	}{
		{"correct", http.StatusOK, want, true},
		{"one byte changed", http.StatusOK, tampered, false},
		{"truncated", http.StatusOK, want[:len(want)-2], false},
		{"error status", http.StatusTooManyRequests, want, false},
	} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(c.status)
			_, _ = w.Write(c.body)
		}))
		cl := newClient(srv.URL)
		n, err := cl.post([]byte(`{}`), want)
		cl.tr.CloseIdleConnections()
		srv.Close()
		if (err == nil) != c.ok {
			t.Errorf("%s: post error = %v, want ok=%v", c.name, err, c.ok)
		}
		if n != len(c.body) {
			t.Errorf("%s: post read %d bytes, want %d", c.name, n, len(c.body))
		}
	}
}

// TestTimedRoundCountsWrongAnswers runs a real round against the paper-dense
// stack with one expected answer tampered, and checks that the requests for
// it are counted as failures, in the window and in the alloc pass.
func TestTimedRoundCountsWrongAnswers(t *testing.T) {
	if testing.Short() {
		t.Skip("mines for a fraction of a second")
	}
	w, err := lookupWorkload("paper-dense")
	if err != nil {
		t.Fatal(err)
	}
	in, err := denseInput(256, 1)
	if err != nil {
		t.Fatal(err)
	}
	body, want, err := expectedExchange(context.Background(), w, in)
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Clone(want)
	bad[len(bad)/2] ^= 1
	ri := &roundInput{
		Workload: w.name, Seconds: 0.2,
		Bodies: [][]byte{body, body}, Expected: [][]byte{want, bad},
	}
	res, err := timedRound(w, ri)
	if err != nil {
		t.Fatal(err)
	}
	// The timed requests take the two bodies in turn, so every second one
	// fails, and so does the second client's warm-up.
	clients := runtime.GOMAXPROCS(0)
	if failed := res.ops()/2 + clients/2; res.Failed != failed || res.Attempted != res.ops()+clients {
		t.Errorf("%d of %d requests failed; want %d of %d", res.Failed, res.Attempted, failed, res.ops()+clients)
	}
	if len(res.Segments) != segments || len(res.CalibMs) != segments+1 || res.AllocB != nil {
		t.Errorf("round has %d segments, %d calibration readings and alloc pass %v; want %d, %d and none",
			len(res.Segments), len(res.CalibMs), res.AllocB, segments, segments+1)
	}

	// The alloc pass sends each body once more and fails on the second.
	ri.AllocPass = true
	res, err = timedRound(w, ri)
	if err != nil {
		t.Fatal(err)
	}
	if failed := res.ops()/2 + clients/2 + 1; res.Failed != failed || res.Attempted != res.ops()+clients+2 {
		t.Errorf("with the alloc pass, %d of %d requests failed; want %d of %d", res.Failed, res.Attempted, failed, res.ops()+clients+2)
	}
	if len(res.AllocB) != 2 || res.AllocB[0] == 0 || len(res.RespB) != 2 || res.RespB[0] != len(want) || res.RespB[1] != len(want) {
		t.Errorf("alloc pass measured allocations %v and replies %v; want two of each, replies of %d bytes", res.AllocB, res.RespB, len(want))
	}
}
