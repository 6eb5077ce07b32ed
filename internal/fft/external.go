// External (out-of-core) FFT via the four-step decomposition: a length-N
// transform, N = R·C, becomes R-point FFTs over columns, a twiddle pass, and
// C-point FFTs over rows, glued by blocked on-disk transposes. Only
// O(√N + tile²) elements are resident at a time, which is the paper's route
// (its reference [19]) to running the convolution over databases that do not
// fit in memory. The files it writes are private scratch, removed on every
// return: this layer persists nothing.
package fft

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"path/filepath"

	"periodica/internal/iofault"
)

const complexBytes = 16

// externalMemElements caps the complex values the external transform holds
// in memory at once (16 MiB).
const externalMemElements = 1 << 20

// AutocorrelateFile computes the lag-match counts r[p] = Σ_i x_i·x_{i+p} of
// a 0/1 indicator stored on disk (one byte per position, values 0 or 1),
// running the convolution entirely through the external FFT: the padded
// complex working arrays — 32× the input size — never reside in memory. The
// indicator file itself is never written; the transforms alternate between
// two private scratch files beside it, which are removed on every return
// path.
func AutocorrelateFile(indicatorPath string, n int) ([]int64, error) {
	return autocorrelateFile(iofault.OS(), indicatorPath, n, externalMemElements)
}

// autocorrelateFile is AutocorrelateFile over the file layer fsys, holding
// at most memElements complex values in memory.
func autocorrelateFile(fsys iofault.FS, indicatorPath string, n, memElements int) ([]int64, error) {
	in, err := iofault.Open(fsys, indicatorPath)
	if err != nil {
		return nil, err
	}
	defer func() { _ = in.Close() }() // read-only; nothing to lose on close

	m := max(NextPow2(2*n), 4)
	dir := filepath.Dir(indicatorPath)
	a, err := fsys.CreateTemp(dir, "fft-a-*")
	if err != nil {
		return nil, err
	}
	defer func() { // scratch is discarded either way; cleanup is best-effort
		_ = a.Close()
		_ = fsys.Remove(a.Name())
	}()
	b, err := fsys.CreateTemp(dir, "fft-b-*")
	if err != nil {
		return nil, err
	}
	defer func() { // scratch is discarded either way; cleanup is best-effort
		_ = b.Close()
		_ = fsys.Remove(b.Name())
	}()
	if err := a.Truncate(int64(m) * complexBytes); err != nil {
		return nil, err
	}

	// Stream the indicator bytes into the zero-padded complex file.
	const chunk = 1 << 16
	raw := make([]byte, chunk)
	vals := make([]complex128, chunk)
	for off := 0; off < n; off += chunk {
		want := min(chunk, n-off)
		if _, err := io.ReadFull(in, raw[:want]); err != nil {
			return nil, err
		}
		for i := 0; i < want; i++ {
			if raw[i] != 0 {
				vals[i] = 1
			} else {
				vals[i] = 0
			}
		}
		if err := writeComplex(a, int64(off)*complexBytes, vals[:want]); err != nil {
			return nil, err
		}
	}

	// Forward a → b, pointwise |X|² (= conj(X)·X) streamed over b, inverse
	// b → a.
	if err := transformFile(a, b, m, false, memElements); err != nil {
		return nil, err
	}
	batch := make([]complex128, min(m, chunk))
	for off := 0; off < m; off += len(batch) {
		want := min(len(batch), m-off)
		if err := readComplex(b, int64(off)*complexBytes, batch[:want]); err != nil {
			return nil, err
		}
		for i := 0; i < want; i++ {
			re, im := real(batch[i]), imag(batch[i])
			batch[i] = complex(re*re+im*im, 0)
		}
		if err := writeComplex(b, int64(off)*complexBytes, batch[:want]); err != nil {
			return nil, err
		}
	}
	if err := transformFile(b, a, m, true, memElements); err != nil {
		return nil, err
	}

	out := make([]int64, n)
	for off := 0; off < n; off += len(batch) {
		want := min(len(batch), n-off)
		if err := readComplex(a, int64(off)*complexBytes, batch[:want]); err != nil {
			return nil, err
		}
		for i := 0; i < want; i++ {
			out[off+i] = int64(math.Round(real(batch[i])))
		}
	}
	return out, nil
}

// transformFile writes the forward or inverse DFT of the n little-endian
// complex128 values in src (16 bytes each: real, imaginary) to dst, holding
// at most memElements values in memory. n must be a power of two ≥ 4 and
// memElements at least 4·C, where C ≥ √N is the longer side of the split.
// The passes alternate between the two files, so src is scratch: its
// content is lost.
func transformFile(src, dst iofault.File, n int, inverse bool, memElements int) error {
	if !IsPow2(n) || n < 4 {
		return fmt.Errorf("fft: external transform needs a power-of-two length ≥ 4, got %d", n)
	}
	// Split N = R·C with R ≤ C, both powers of two.
	r := 1 << (uint(log2(n)) / 2)
	c := n / r
	if memElements < 4*c {
		return fmt.Errorf("fft: memory cap %d too small for n=%d (need ≥ %d)", memElements, n, 4*c)
	}
	if err := checkSize(src, n); err != nil {
		return err
	}

	tile := tileSize(memElements)
	// Step 1: transpose R×C → C×R so each original column is a contiguous
	// row of length R.
	if err := transpose(src, dst, r, c, tile); err != nil {
		return err
	}
	// Step 2: FFT each length-R row and apply the twiddle w_N^{s·c}, where
	// the row index is c and the in-row index is s.
	if err := rowPass(dst, c, r, inverse, n, memElements); err != nil {
		return err
	}
	// Step 3: transpose back C×R → R×C.
	if err := transpose(dst, src, c, r, tile); err != nil {
		return err
	}
	// Step 4: FFT each length-C row (no twiddle).
	if err := rowPass(src, r, c, inverse, 0, memElements); err != nil {
		return err
	}
	// Step 5: transpose R×C → C×R; reading the result row-major yields the
	// transform in natural order.
	return transpose(src, dst, r, c, tile)
}

func log2(n int) int {
	k := 0
	for 1<<uint(k) < n {
		k++
	}
	return k
}

func tileSize(memElements int) int {
	t := 1
	for (t*2)*(t*2) <= memElements/2 {
		t *= 2
	}
	return t
}

func checkSize(f iofault.File, n int) error {
	st, err := f.Stat()
	if err != nil {
		return err
	}
	if st.Size() != int64(n)*complexBytes {
		return fmt.Errorf("fft: file holds %d bytes, want %d for n=%d", st.Size(), int64(n)*complexBytes, n)
	}
	return nil
}

// transpose writes the transpose of the rows×cols matrix in src to dst,
// tile by tile.
func transpose(src, dst iofault.File, rows, cols, tile int) error {
	buf := make([]complex128, tile*tile)
	out := make([]complex128, tile*tile)
	for r0 := 0; r0 < rows; r0 += tile {
		rh := min(tile, rows-r0)
		for c0 := 0; c0 < cols; c0 += tile {
			cw := min(tile, cols-c0)
			for i := 0; i < rh; i++ {
				off := int64((r0+i)*cols+c0) * complexBytes
				if err := readComplex(src, off, buf[i*cw:(i+1)*cw]); err != nil {
					return err
				}
			}
			for i := 0; i < rh; i++ {
				for j := 0; j < cw; j++ {
					out[j*rh+i] = buf[i*cw+j]
				}
			}
			for j := 0; j < cw; j++ {
				off := int64((c0+j)*rows+r0) * complexBytes
				if err := writeComplex(dst, off, out[j*rh:(j+1)*rh]); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// rowPass FFTs every length-rowLen row of the rows×rowLen matrix in f,
// batching as many rows as fit in memory. When twiddleN > 0, element s of
// row c is multiplied by w_twiddleN^{s·c} (conjugated for inverse
// transforms) after the FFT.
func rowPass(f iofault.File, rows, rowLen int, inverse bool, twiddleN, memElements int) error {
	batch := max(1, memElements/(2*rowLen))
	buf := make([]complex128, batch*rowLen)
	// All rows share one length, so one cached plan serves the whole pass —
	// the twiddle tables and bit-reversal permutation are built once, not
	// once per row.
	plan := PlanFor(rowLen)
	for r0 := 0; r0 < rows; r0 += batch {
		rh := min(batch, rows-r0)
		chunk := buf[:rh*rowLen]
		off := int64(r0*rowLen) * complexBytes
		if err := readComplex(f, off, chunk); err != nil {
			return err
		}
		for i := 0; i < rh; i++ {
			row := chunk[i*rowLen : (i+1)*rowLen]
			if inverse {
				plan.Inverse(row)
			} else {
				plan.Forward(row)
			}
			if twiddleN > 0 {
				c := r0 + i
				applyTwiddle(row, c, twiddleN, inverse)
			}
		}
		if err := writeComplex(f, off, chunk); err != nil {
			return err
		}
	}
	return nil
}

func applyTwiddle(row []complex128, c, n int, inverse bool) {
	ang := -2 * math.Pi * float64(c) / float64(n)
	if inverse {
		ang = -ang
	}
	step := complex(math.Cos(ang), math.Sin(ang))
	w := complex(1, 0)
	for s := range row {
		row[s] *= w
		w *= step
	}
}

func readComplex(f iofault.File, off int64, dst []complex128) error {
	raw := make([]byte, len(dst)*complexBytes)
	if _, err := f.ReadAt(raw, off); err != nil {
		return err
	}
	for i := range dst {
		re := math.Float64frombits(binary.LittleEndian.Uint64(raw[i*16:]))
		im := math.Float64frombits(binary.LittleEndian.Uint64(raw[i*16+8:]))
		dst[i] = complex(re, im)
	}
	return nil
}

func writeComplex(f iofault.File, off int64, src []complex128) error {
	raw := make([]byte, len(src)*complexBytes)
	for i, v := range src {
		binary.LittleEndian.PutUint64(raw[i*16:], math.Float64bits(real(v)))
		binary.LittleEndian.PutUint64(raw[i*16+8:], math.Float64bits(imag(v)))
	}
	_, err := f.WriteAt(raw, off)
	return err
}
