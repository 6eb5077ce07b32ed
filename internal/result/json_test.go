package result

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"strings"
	"testing"

	"periodica/internal/alphabet"
)

// countingWriter records what it receives, and fails every write once err is
// set.
type countingWriter struct {
	buf    bytes.Buffer
	writes int
	maxLen int
	err    error
}

func (c *countingWriter) Write(p []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	c.writes++
	c.maxLen = max(c.maxLen, len(p))
	return c.buf.Write(p)
}

// checkParity writes r both ways and fails unless the bytes are identical.
// It returns the writer WriteJSON wrote to.
func checkParity(t *testing.T, r *Result) *countingWriter {
	t.Helper()
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(r); err != nil {
		t.Fatalf("encoding/json: %v", err)
	}
	got := &countingWriter{}
	if err := WriteJSON(got, r); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if !bytes.Equal(got.buf.Bytes(), want.Bytes()) {
		g, w := got.buf.Bytes(), want.Bytes()
		at := 0
		for at < len(g) && at < len(w) && g[at] == w[at] {
			at++
		}
		t.Fatalf("WriteJSON differs from encoding/json at byte %d of %d/%d:\n got %q\nwant %q",
			at, len(g), len(w), g[max(at-40, 0):min(at+40, len(g))], w[max(at-40, 0):min(at+40, len(w))])
	}
	if got.maxLen > chunkSize {
		t.Fatalf("WriteJSON wrote %d bytes at once; the chunk is %d", got.maxLen, chunkSize)
	}
	return got
}

// withSymbols is a result whose periodicity symbols and pattern texts are
// the given strings.
func withSymbols(strs ...string) *Result {
	r := &Result{Periods: []int{3}}
	for i, s := range strs {
		r.Periodicities = append(r.Periodicities, Periodicity{Symbol: s, Period: 3, Position: i, Matches: 2, Pairs: 3, Confidence: 2.0 / 3})
		r.Patterns = append(r.Patterns, Pattern{Period: 3, Text: s, Support: 0.5})
	}
	return r
}

// withFloats is a result carrying each float as a confidence and a support.
func withFloats(fs ...float64) *Result {
	r := &Result{}
	for _, f := range fs {
		r.Periodicities = append(r.Periodicities, Periodicity{Symbol: "a", Confidence: f})
		r.SingleSymbolPatterns = append(r.SingleSymbolPatterns, Pattern{Text: "a", Support: f})
	}
	return r
}

// TestWriteJSONMatchesEncodingJSON: WriteJSON writes what
// json.NewEncoder(w).Encode writes, byte for byte.
func TestWriteJSONMatchesEncodingJSON(t *testing.T) {
	long := strings.Repeat("*", 3*chunkSize) + "a" + strings.Repeat("*", 100)
	cases := []struct {
		name string
		r    *Result
	}{
		{"nil result", nil},
		{"zero result", &Result{}},
		{"empty slices", &Result{Periods: []int{}, Periodicities: []Periodicity{}, SingleSymbolPatterns: []Pattern{}, Patterns: []Pattern{}}},
		{"truncated", &Result{Periods: []int{2, 7, 1 << 40, -3}, Truncated: true}},
		{"html and quoting", withSymbols(`"`, `\`, "<", ">", "&", `a"b`, "********<*******", "*******&", "**********\\**")},
		{"control bytes", withSymbols("\x00", "\x1f", "\t", "\n", "\x7f", "********\x01*", "ab\x1fdefgh", "*******\n********", "~\x7f~~~~~~")},
		{"line separators", withSymbols("\u2028", "\u2029", "********\u2028")},
		{"multi-byte runes", withSymbols("é", "日本", "α*ζη", "********é*******", "🙂")},
		{"invalid UTF-8", withSymbols("\xff", "a\xc3", "\xed\xa0\x80", "********\xfe********")},
		{"short and long texts", withSymbols("", "a", "*", "ab*", "********", "*******a", "a*******", "****************x", "b***************")},
		{"floats", withFloats(5e-7, -5e-7, 1e-6, 1e-7, 1e21, -1e21, 9.999999999999999e20, math.Copysign(0, -1), 0, 1, -1,
			0.1, 1.0/3, 2.0/3, 123456789.125, 1e-300, 5e-324, math.MaxFloat64, -math.MaxFloat64, 1e20, 1e100)},
		{"text longer than a chunk", &Result{Patterns: []Pattern{{Period: len(long), Text: long, Support: 0.75}}}},
		{"result larger than a chunk", FromCore(alphabet.Letters(3), syntheticResult(2000), false)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkParity(t, c.r) })
	}

	t.Run("streams in chunks", func(t *testing.T) {
		w := checkParity(t, FromCore(alphabet.Letters(3), syntheticResult(2000), false))
		if w.writes < 2 {
			t.Fatalf("a %d-byte body arrived in %d write; want one per %d-byte chunk", w.buf.Len(), w.writes, chunkSize)
		}
	})
}

// TestWriteJSONNonFinite: a NaN or infinite confidence or support is an
// error wrapping ErrNonFinite, and the writer receives nothing.
func TestWriteJSONNonFinite(t *testing.T) {
	big := FromCore(alphabet.Letters(3), syntheticResult(2000), false)
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, field := range []string{"Confidence", "SingleSymbolPatterns", "Patterns"} {
			r := *big
			r.Periodicities = append([]Periodicity(nil), big.Periodicities...)
			r.SingleSymbolPatterns = append([]Pattern(nil), big.SingleSymbolPatterns...)
			r.Patterns = append([]Pattern(nil), big.Patterns...)
			last := len(r.Patterns) - 1
			switch field {
			case "Confidence":
				r.Periodicities[last].Confidence = f
			case "SingleSymbolPatterns":
				r.SingleSymbolPatterns[last].Support = f
			case "Patterns":
				r.Patterns[last].Support = f
			}
			if _, err := json.Marshal(&r); err == nil {
				t.Fatalf("%v in %s: encoding/json accepted it; the test is vacuous", f, field)
			}
			w := &countingWriter{}
			err := WriteJSON(w, &r)
			if !errors.Is(err, ErrNonFinite) {
				t.Errorf("%v in %s: err = %v, want ErrNonFinite", f, field, err)
			}
			if w.writes != 0 || w.buf.Len() != 0 {
				t.Errorf("%v in %s: writer received %d bytes in %d writes, want none", f, field, w.buf.Len(), w.writes)
			}
		}
	}
}

// TestWriteJSONWriteError: the writer's error is returned, and nothing is
// written after it.
func TestWriteJSONWriteError(t *testing.T) {
	broken := errors.New("connection reset")
	w := &countingWriter{err: broken}
	if err := WriteJSON(w, FromCore(alphabet.Letters(3), syntheticResult(2000), false)); !errors.Is(err, broken) {
		t.Fatalf("err = %v, want %v", err, broken)
	}
	if w.writes != 0 {
		t.Fatalf("%d writes after the first failed", w.writes)
	}
}

// TestWriteJSONAllocsIndependentOfResultSize: WriteJSON allocates its one
// chunk whatever the result's size; a buffer grown to the body would
// allocate more times as the body grows.
func TestWriteJSONAllocsIndependentOfResultSize(t *testing.T) {
	alpha := alphabet.Letters(3)
	allocs := map[int]float64{}
	for _, count := range []int{10, 10000} {
		r := FromCore(alpha, syntheticResult(count), false)
		allocs[count] = testing.AllocsPerRun(10, func() {
			if err := WriteJSON(io.Discard, r); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs[10000] != allocs[10] || allocs[10] > 2 {
		t.Fatalf("WriteJSON allocates %v times at 10 patterns and %v at 10000; want the same, at most 2",
			allocs[10], allocs[10000])
	}
}

func FuzzWriteJSON(f *testing.F) {
	f.Add("a", "ab*", 0.75, 1.0, 3, uint8(0xff), uint16(1), false)
	f.Add("<", "****\u2028***", 5e-7, 1e21, -1, uint8(0x55), uint16(300), true)
	f.Add("\xff", "\"\\", math.Copysign(0, -1), 1e-7, 1<<40, uint8(0xaa), uint16(5000), false)
	f.Add("b", "*b", 0.0, math.Copysign(0, -1), 7, uint8(0xff), uint16(2), false)
	f.Add("c", "c**", 1e-7, 5e-7, 2, uint8(0xfc), uint16(0), true)
	f.Fuzz(func(t *testing.T, sym, text string, conf, support float64, period int, shape uint8, reps uint16, truncated bool) {
		// Elements alternate the two floats by parity, so every list runs
		// both a float repeated from the one before and a new one.
		float := func(i int, a, b float64) float64 {
			if i%2 == 1 {
				return b
			}
			return a
		}
		if len(text) > 0 {
			text = strings.Repeat(text, min(int(reps), (1<<16)/len(text))+1)
		}
		// Each two bits of shape pick a list's form: nil, empty, one
		// element or three.
		count := func(field int) int { return [4]int{-1, 0, 1, 3}[shape>>(2*field)&3] }
		r := &Result{Truncated: truncated}
		if n := count(0); n >= 0 {
			r.Periods = make([]int, n)
			for i := range r.Periods {
				r.Periods[i] = period + i
			}
		}
		if n := count(1); n >= 0 {
			r.Periodicities = make([]Periodicity, n)
			for i := range r.Periodicities {
				r.Periodicities[i] = Periodicity{Symbol: sym, Period: period, Position: -i, Matches: i, Pairs: period, Confidence: float(i, conf, support)}
			}
		}
		pats := func(n int) []Pattern {
			if n < 0 {
				return nil
			}
			out := make([]Pattern, n)
			for i := range out {
				out[i] = Pattern{Period: period, Text: text[:len(text)-i*len(text)/4], Support: float(i, support, conf)}
			}
			return out
		}
		r.SingleSymbolPatterns = pats(count(2))
		r.Patterns = pats(count(3))

		var want bytes.Buffer
		wantErr := json.NewEncoder(&want).Encode(r)
		got := &countingWriter{}
		err := WriteJSON(got, r)
		switch {
		case wantErr != nil && err == nil:
			t.Fatalf("encoding/json failed (%v), WriteJSON did not", wantErr)
		case wantErr == nil && err != nil:
			t.Fatalf("WriteJSON failed (%v), encoding/json did not", err)
		case err != nil && got.writes != 0:
			t.Fatalf("WriteJSON failed (%v) after %d writes", err, got.writes)
		case err == nil && !bytes.Equal(got.buf.Bytes(), want.Bytes()):
			t.Fatalf("WriteJSON differs from encoding/json:\n got %q\nwant %q", got.buf.Bytes(), want.Bytes())
		}
	})
}
