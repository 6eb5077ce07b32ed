package httpapi

// Fuzzing over the /v1/shard wire. The distributed tier's safety claim is
// that no byte stream a network can produce makes the coordinator merge
// wrong slots: the request fuzzer pins the handler against arbitrary bodies,
// and the response fuzzer pins the client's acceptance rule — whatever bytes
// come back, MineShard either rejects them or returns a response that
// verifies against the request.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// fuzzWorkerRequest is the fixed request both fuzzers answer for; each
// fuzzer ships it with the survivors a coordinator would send (withSurvivors).
var fuzzWorkerRequest = ShardRequest{
	ShardID: 11, Alphabet: []string{"a", "b"}, Symbols: "abababababab",
	Query: "conf >= 0.5", MinPeriod: 1, MaxPeriod: 4, SymbolLo: 0, SymbolHi: 2,
}

// canned returns the fuzzed bytes as a 200 response without a network hop.
type canned struct{ body []byte }

func (c canned) RoundTrip(*http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: http.StatusOK,
		Status:     "200 OK",
		Header:     http.Header{"Content-Type": []string{"application/json"}},
		Body:       io.NopCloser(bytes.NewReader(c.body)),
	}, nil
}

func FuzzShardRequestDecode(f *testing.F) {
	valid, err := json.Marshal(withSurvivors(f, fuzzWorkerRequest))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"shardId":1,"alphabet":["a"],"symbols":"aaaa","query":"conf >= 0.5","survivors":[[0],[0]]}`))
	f.Add([]byte(`{"alphabet":["a","b"],"symbols":"abab","query":"conf >= 0.5","symbolHi":2,"survivors":[[1,0]]}`))
	f.Add(valid[:len(valid)/3])
	f.Add([]byte(`[`))
	h := quiet(Config{})
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/shard", bytes.NewReader(body))
		h.ServeHTTP(rec, req) // must not panic
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge,
			http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Fatalf("unexpected status %d for fuzzed request body", rec.Code)
		}
		if rec.Code != http.StatusOK {
			return
		}
		// Anything the worker accepted it must also have answered verifiably.
		var resp ShardResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 with undecodable body: %v", err)
		}
		if got := ShardChecksum(&resp); got != resp.Checksum {
			t.Fatalf("200 response fails its own checksum: declared %08x, computed %08x", resp.Checksum, got)
		}
	})
}

func FuzzShardSlotDecode(f *testing.F) {
	worker := httptest.NewServer(quiet(Config{}))
	defer worker.Close()
	var c ShardClient
	req := withSurvivors(f, fuzzWorkerRequest)
	good, err := c.MineShard(context.Background(), worker.URL, &req)
	if err != nil {
		f.Fatal(err)
	}
	pristine, err := json.Marshal(good)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(pristine)
	f.Add(pristine[:len(pristine)-2])
	flipped := append([]byte(nil), pristine...)
	flipped[len(flipped)/2] ^= 0x01
	f.Add(flipped)
	f.Add([]byte(`{"shardId":11,"slots":[]}`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, body []byte) {
		c := ShardClient{HTTP: &http.Client{Transport: canned{body: body}}}
		resp, err := c.MineShard(context.Background(), "http://worker", &req)
		if err != nil {
			return // rejected: the safe outcome for arbitrary bytes
		}
		// Accepted: the bytes must re-verify against the request — there is
		// no third outcome between "rejected" and "proven intact". (The CRC
		// is not a MAC: it detects transit damage, not a byzantine worker,
		// so in-block slot ranges are re-validated at assembly instead.)
		if verr := VerifyShardResponse(&req, resp); verr != nil {
			t.Fatalf("MineShard accepted a response that fails verification: %v", verr)
		}
	})
}
