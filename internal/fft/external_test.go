package fft

import (
	"math/cmplx"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"periodica/internal/iofault"
)

// complexFiles writes values to a source file and creates an empty
// destination beside it, the pair transformFile runs over; both are closed
// when the test ends.
func complexFiles(t *testing.T, values []complex128) (src, dst *os.File) {
	t.Helper()
	dir := t.TempDir()
	src, err := os.Create(filepath.Join(dir, "src.cpx"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = src.Close() })
	if err := writeComplex(src, 0, values); err != nil {
		t.Fatal(err)
	}
	dst, err = os.Create(filepath.Join(dir, "dst.cpx"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = dst.Close() })
	return src, dst
}

// minMemElements is the smallest memory cap transformFile accepts for n:
// four rows of the longer side. It forces several row batches and several
// transpose tiles once n ≥ 64.
func minMemElements(n int) int {
	return 4 * (n >> (log2(n) / 2))
}

func TestTransformFileMatchesInMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{4, 16, 64, 256, 4096} {
		mem := minMemElements(n)
		if r, c := 1<<(log2(n)/2), n>>(log2(n)/2); n >= 64 && (tileSize(mem) >= r || mem/(2*c) >= r) {
			t.Fatalf("n=%d: memory cap %d leaves one tile (%d) or one row batch", n, mem, tileSize(mem))
		}
		x := randComplex(rng, n)
		src, dst := complexFiles(t, x)
		if err := transformFile(src, dst, n, false, mem); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		got := make([]complex128, n)
		if err := readComplex(dst, 0, got); err != nil {
			t.Fatal(err)
		}
		want := append([]complex128(nil), x...)
		Forward(want)
		for i := range want {
			if cmplx.Abs(got[i]-want[i]) > 1e-6*float64(n) {
				t.Fatalf("n=%d: external[%d]=%v, in-memory %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestTransformFileInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 1024
	x := randComplex(rng, n)
	src, dst := complexFiles(t, x)
	mem := minMemElements(n)
	if err := transformFile(src, dst, n, false, mem); err != nil {
		t.Fatal(err)
	}
	if err := transformFile(dst, src, n, true, mem); err != nil {
		t.Fatal(err)
	}
	got := make([]complex128, n)
	if err := readComplex(src, 0, got); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if cmplx.Abs(got[i]-x[i]) > 1e-8 {
			t.Fatalf("round trip deviates at %d: %v vs %v", i, got[i], x[i])
		}
	}
}

func TestTransformFileValidates(t *testing.T) {
	src, dst := complexFiles(t, make([]complex128, 8))
	if err := transformFile(src, dst, 6, false, externalMemElements); err == nil {
		t.Fatal("non-power-of-two length: want error")
	}
	if err := transformFile(src, dst, 16, false, externalMemElements); err == nil {
		t.Fatal("length/file-size mismatch: want error")
	}
	if err := transformFile(src, dst, 8, false, 2); err == nil {
		t.Fatal("absurd memory limit: want error")
	}
}

func TestAutocorrelateFileMatchesInMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 3000
	ind := make([]byte, n)
	x := make([]float64, n)
	for i := range ind {
		if rng.Intn(3) == 0 {
			ind[i] = 1
			x[i] = 1
		}
	}
	path := filepath.Join(t.TempDir(), "indicator.bin")
	if err := os.WriteFile(path, ind, 0o644); err != nil {
		t.Fatal(err)
	}
	// The smallest memory cap makes both transforms tile and batch.
	got, err := autocorrelateFile(iofault.OS(), path, n, minMemElements(NextPow2(2*n)))
	if err != nil {
		t.Fatal(err)
	}
	want := AutocorrelateCounts(x)
	for p := 0; p < n; p++ {
		if got[p] != want[p] {
			t.Fatalf("r[%d] = %d, want %d", p, got[p], want[p])
		}
	}
}

func TestAutocorrelateFileMissing(t *testing.T) {
	if _, err := AutocorrelateFile(filepath.Join(t.TempDir(), "nope"), 10); err == nil {
		t.Fatal("missing file: want error")
	}
}
