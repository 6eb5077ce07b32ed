package result_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"strconv"
	"testing"

	"periodica"
	"periodica/internal/result"
)

// noisySymbols is a noisy period-7 sequence over alpha: a fixed motif with
// 20% replacement noise.
func noisySymbols(alpha []string, n int) []string {
	motif := []int{0, 1, 0, 2, 1, 1, 2}
	rng := rand.New(rand.NewSource(11))
	out := make([]string, n)
	for i := range out {
		out[i] = alpha[motif[i%len(motif)]]
		if rng.Intn(5) == 0 {
			out[i] = alpha[rng.Intn(len(alpha))]
		}
	}
	return out
}

// TestWriteJSONMinedResults: on mined results from every engine, over
// alphabets that need no escaping and ones that do, and under the queries
// that shape a result, WriteJSON writes what encoding/json writes.
func TestWriteJSONMinedResults(t *testing.T) {
	alphabets := map[string][]string{
		"letters":   {"a", "b", "c"},
		"escaped":   {"<", `"`, "&"},
		"unicode":   {"α", "\u2028", "é"},
		"multirune": {"lo", "mid", "ζη"},
	}
	queries := []string{
		"conf >= 0.6 and pairs >= 3 and pattern period <= 21",
		"conf >= 0.5 and pattern period <= 14 and maximal only",
		"conf >= 0.6 and pairs >= 3 and pattern period <= 21 and limit 3 by conf",
		"conf >= 0.6 and pairs >= 3 and pattern period <= 21 and limit 5 by support",
		"conf >= 0.99",
	}
	for aname, alpha := range alphabets {
		s, err := periodica.NewSeries(noisySymbols(alpha, 605))
		if err != nil {
			t.Fatal(err)
		}
		shapes := queries
		if aname != "multirune" { // the symbol clause needs single-rune symbols
			shapes = append(shapes, queries[0]+" and symbol in {"+strconv.Quote(alpha[0])+"}")
		}
		for _, engine := range []string{"naive", "bitset", "fft"} {
			for _, src := range shapes {
				q, err := periodica.CompileQuery(src + " and engine " + engine)
				if err != nil {
					t.Fatal(err)
				}
				res, err := periodica.MineQueryContext(context.Background(), s, q)
				if err != nil {
					t.Fatalf("%s, %s, %q: %v", aname, engine, src, err)
				}
				if src == queries[0] && len(res.Patterns) == 0 {
					t.Fatalf("%s, %s: the fixture mined no multi-symbol patterns; the test is vacuous", aname, engine)
				}
				var want, got bytes.Buffer
				if err := json.NewEncoder(&want).Encode(res); err != nil {
					t.Fatal(err)
				}
				if err := result.WriteJSON(&got, res); err != nil {
					t.Fatalf("%s, %s, %q: WriteJSON: %v", aname, engine, src, err)
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Errorf("%s, %s, %q: WriteJSON's %d bytes differ from encoding/json's %d",
						aname, engine, src, got.Len(), want.Len())
				}
			}
		}
	}
}
