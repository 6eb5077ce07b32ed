package store

import (
	"math/rand"
	"testing"

	"periodica/internal/core"
)

// BenchmarkRangeQueryVsRemine compares answering from merged summaries with
// rebuilding the summary from raw symbols — the value the store's persisted
// summaries buy.
func BenchmarkRangeQueryVsRemine(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	dir := b.TempDir()
	db, err := Open(dir, Options{Sigma: 5, MaxPeriod: 64, SegmentSize: 2000})
	if err != nil {
		b.Fatal(err)
	}
	data := make([]uint16, 20000)
	for i := range data {
		k := i % 7 % 5
		if rng.Float64() < 0.1 {
			k = rng.Intn(5)
		}
		data[i] = uint16(k)
		if err := db.Append(k); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("summary-merge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := periodicities(db, 0.6); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("remine-raw", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, err := summarize(data, 5, 64)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := s.Periodicities(core.Options{Threshold: 0.6}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAppend measures the store's ingest rate including sealing.
func BenchmarkAppend(b *testing.B) {
	db, err := Open(b.TempDir(), Options{Sigma: 5, MaxPeriod: 64, SegmentSize: 4096})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Append(i % 5); err != nil {
			b.Fatal(err)
		}
	}
}
