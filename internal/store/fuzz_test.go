package store

// Fuzz the decode paths that face on-disk bytes. The contract under test:
// decoding arbitrary input may fail, but must never panic, and a successful
// decode must be self-consistent — re-encoding a decoded frame reproduces
// the input, and decoded records pass the same validation the store applies
// at Open. Silently wrong records are the one outcome that is never
// acceptable.

import (
	"bytes"
	"encoding/gob"
	"testing"
)

// seedCorpus returns well-formed frames of every kind plus near-miss
// mutations so the fuzzer starts at the interesting boundaries.
func seedCorpus() [][]byte {
	sum, _ := summarize([]uint16{0, 1, 2, 0, 1, 2, 0, 1}, 3, 4) // fixed valid shape
	rec := summaryRecord{
		Version: 1, Sigma: 3, MaxPeriod: 4, Length: 8,
		Head: sum.Head, Tail: sum.Tail, F2: sum.Table,
	}
	var gobBuf bytes.Buffer
	_ = gob.NewEncoder(&gobBuf).Encode(&rec) // seed only; errors just shrink the corpus
	segPayload := []byte("PSER1 3 4\n\x00\x01\x02\x00")
	frames := [][]byte{
		encodeFrame(kindManifest, []byte(`{"version":1,"sigma":3,"maxPeriod":4,"segmentSize":16}`)),
		encodeFrame(kindSegment, segPayload),
		encodeFrame(kindSummary, gobBuf.Bytes()),
		encodeFrame(kindSegment, nil),
	}
	out := append([][]byte(nil), frames...)
	for _, f := range frames {
		truncated := f[:len(f)-1]
		out = append(out, append([]byte(nil), truncated...))
		flipped := append([]byte(nil), f...)
		flipped[len(flipped)/2] ^= 0x01
		out = append(out, flipped)
	}
	return out
}

func FuzzFrameDecode(f *testing.F) {
	for _, seed := range seedCorpus() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, kind := range []byte{kindManifest, kindSegment, kindSummary} {
			payload, err := decodeFrame(data, kind)
			if err != nil {
				continue
			}
			// Round-trip property: a frame that decodes re-encodes to the
			// exact input bytes, so no two distinct byte strings can decode
			// to the same accepted frame.
			if re := encodeFrame(kind, payload); !bytes.Equal(re, data) {
				t.Fatalf("kind %d: decode/encode round trip diverged", kind)
			}
		}
	})
}

func FuzzSegmentDecode(f *testing.F) {
	for _, seed := range seedCorpus() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := decodeFrame(data, kindSegment)
		if err != nil {
			return
		}
		s, err := decodeSegmentPayload(payload)
		if err != nil {
			return
		}
		// An accepted segment must be internally consistent: every symbol
		// within its own alphabet.
		sigma := s.Alphabet().Size()
		if sigma <= 0 {
			t.Fatal("accepted segment with non-positive alphabet")
		}
		for i := 0; i < s.Len(); i++ {
			if k := s.At(i); k < 0 || k >= sigma {
				t.Fatalf("accepted segment holds symbol %d outside σ=%d", k, sigma)
			}
		}
	})
}

func FuzzSummaryDecode(f *testing.F) {
	for _, seed := range seedCorpus() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := decodeFrame(data, kindSummary)
		if err != nil {
			return
		}
		rec, err := decodeSummaryPayload(payload)
		if err != nil {
			return
		}
		// decodeSummaryPayload runs validate(); double-check the invariants
		// downstream code leans on so a validation gap fails loudly here.
		if rec.Sigma <= 0 || rec.MaxPeriod <= 0 || rec.Length <= 0 {
			t.Fatalf("accepted summary with shape σ=%d maxPeriod=%d len=%d", rec.Sigma, rec.MaxPeriod, rec.Length)
		}
		want := rec.MaxPeriod
		if rec.Length < want {
			want = rec.Length
		}
		if len(rec.Head) != want || len(rec.Tail) != want {
			t.Fatalf("accepted summary with head/tail %d/%d, want %d", len(rec.Head), len(rec.Tail), want)
		}
		for _, k := range rec.Head {
			if int(k) >= rec.Sigma {
				t.Fatal("accepted summary with out-of-alphabet head symbol")
			}
		}
		for _, k := range rec.Tail {
			if int(k) >= rec.Sigma {
				t.Fatal("accepted summary with out-of-alphabet tail symbol")
			}
		}
		if len(rec.F2) != rec.Sigma {
			t.Fatalf("accepted summary with %d F2 rows, σ=%d", len(rec.F2), rec.Sigma)
		}
	})
}
