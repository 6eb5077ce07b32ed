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
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// fuzzWorkerRequest is the fixed request both fuzzers answer for; each
// fuzzer ships it with the survivors a coordinator would send (withSurvivors).
// Both decoders are seeded with a valid frame, a truncated one, a bit-flipped
// one, the old JSON wire, and frames whose counts claim 2^31 elements.
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
		Header:     http.Header{"Content-Type": []string{"application/octet-stream"}},
		Body:       io.NopCloser(bytes.NewReader(c.body)),
	}, nil
}

// hugeCount returns frame with the uint32 at off set to 2^31 and the CRC
// recomputed: a well-formed frame whose count no body could hold.
func hugeCount(frame []byte, off int) []byte {
	b := append([]byte(nil), frame...)
	binary.LittleEndian.PutUint32(b[off:], 1<<31)
	return reframe(b)
}

// survivorCountOffset is the offset of a request frame's survivor period
// count: the last field before the survivor lists.
func survivorCountOffset(req *ShardRequest) int {
	n := len(EncodeShardRequest(req)) - 4 - 4
	for _, list := range req.Survivors {
		n -= 4 + 4*len(list)
	}
	return n
}

// corpus returns the shared seeds for one direction's decoder: a valid
// frame, a truncated one, a bit-flipped one, the old JSON body, and frames
// that claim 2^31 elements at each count offset given.
func corpus(valid, oldJSON []byte, countOffsets ...int) [][]byte {
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x01
	seeds := [][]byte{valid, valid[:len(valid)/3], valid[:len(valid)-1], flipped, oldJSON, {}}
	for _, off := range countOffsets {
		seeds = append(seeds, hugeCount(valid, off))
	}
	return seeds
}

func FuzzShardRequestDecode(f *testing.F) {
	req := withSurvivors(f, fuzzWorkerRequest)
	oldJSON, err := json.Marshal(map[string]any{
		"shardId": req.ShardID, "alphabet": req.Alphabet, "symbols": req.Symbols,
		"query": req.Query, "minPeriod": 1, "maxPeriod": 4, "symbolHi": 2, "survivors": req.Survivors,
	})
	if err != nil {
		f.Fatal(err)
	}
	valid := EncodeShardRequest(&req)
	// Offsets of the alphabet count, the first symbol's length and the
	// survivor period count.
	for _, seed := range corpus(valid, oldJSON, 24, 28, survivorCountOffset(&req)) {
		f.Add(seed)
	}
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
		if _, err := VerifyShardResponse(body, rec.Body.Bytes()); err != nil {
			t.Fatalf("200 response does not verify against its request: %v", err)
		}
	})
}

func FuzzShardSlotDecode(f *testing.F) {
	worker := httptest.NewServer(quiet(Config{}))
	defer worker.Close()
	var c ShardClient
	req := withSurvivors(f, fuzzWorkerRequest)
	frame := EncodeShardRequest(&req)
	good, err := c.MineShard(context.Background(), worker.URL, frame)
	if err != nil {
		f.Fatal(err)
	}
	oldJSON, err := json.Marshal(map[string]any{"shardId": req.ShardID, "slots": good.Slots})
	if err != nil {
		f.Fatal(err)
	}
	// Offset 8 is the slot count.
	for _, seed := range corpus(good.Frame, oldJSON, 8) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		c := ShardClient{HTTP: &http.Client{Transport: canned{body: body}}}
		resp, err := c.MineShard(context.Background(), "http://worker", frame)
		if err != nil {
			return // rejected: the safe outcome for arbitrary bytes
		}
		// Accepted: the bytes must be a frame answering this request, and
		// the only encoding of the slots they carry — there is no third
		// outcome between "rejected" and "proven intact". (The CRC is not a
		// MAC: it detects transit damage, not a byzantine worker, so in-block
		// slot ranges are re-validated at assembly instead.)
		if !bytes.Equal(EncodeShardResponse(frame, resp.Slots), body) {
			t.Fatalf("MineShard accepted bytes that are not the encoding of their slots")
		}
	})
}
