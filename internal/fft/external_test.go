package fft

import (
	"math/cmplx"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

func writeTempComplex(t *testing.T, values []complex128) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.cpx")
	if err := writeComplexFile(path, values); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestTransformFileMatchesInMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{4, 16, 64, 256, 4096} {
		x := randComplex(rng, n)
		path := writeTempComplex(t, x)
		// Force small memory so transposes and row passes tile.
		opts := ExternalOptions{MemElements: max(4*NextPow2(n), 64)}
		if err := TransformFile(path, n, false, opts); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		got, err := readComplexFile(path, n)
		if err != nil {
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
	path := writeTempComplex(t, x)
	opts := ExternalOptions{MemElements: 4 * n}
	if err := TransformFile(path, n, false, opts); err != nil {
		t.Fatal(err)
	}
	if err := TransformFile(path, n, true, opts); err != nil {
		t.Fatal(err)
	}
	got, err := readComplexFile(path, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if cmplx.Abs(got[i]-x[i]) > 1e-8 {
			t.Fatalf("round trip deviates at %d: %v vs %v", i, got[i], x[i])
		}
	}
}

func TestTransformFileValidates(t *testing.T) {
	path := writeTempComplex(t, make([]complex128, 8))
	if err := TransformFile(path, 6, false, ExternalOptions{}); err == nil {
		t.Fatal("non-power-of-two length: want error")
	}
	if err := TransformFile(path, 16, false, ExternalOptions{}); err == nil {
		t.Fatal("length/file-size mismatch: want error")
	}
	if err := TransformFile(path, 8, false, ExternalOptions{MemElements: 2}); err == nil {
		t.Fatal("absurd memory limit: want error")
	}
	if err := TransformFile(filepath.Join(t.TempDir(), "missing"), 8, false, ExternalOptions{}); err == nil {
		t.Fatal("missing file: want error")
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
	got, err := AutocorrelateFile(path, n, ExternalOptions{MemElements: 4 * NextPow2(2*n)})
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
	if _, err := AutocorrelateFile(filepath.Join(t.TempDir(), "nope"), 10, ExternalOptions{}); err == nil {
		t.Fatal("missing file: want error")
	}
}

// writeComplexFile writes values as a complex file TransformFile accepts.
func writeComplexFile(path string, values []complex128) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeComplex(f, 0, values); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// readComplexFile reads n complex values from a file written by
// writeComplexFile or produced by TransformFile.
func readComplexFile(path string, n int) ([]complex128, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }() // read-only; nothing to lose on close
	out := make([]complex128, n)
	if err := readComplex(f, 0, out); err != nil {
		return nil, err
	}
	return out, nil
}
