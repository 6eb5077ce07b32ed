// External (out-of-core) FFT via the four-step decomposition: a length-N
// transform, N = R·C, becomes R-point FFTs over columns, a twiddle pass, and
// C-point FFTs over rows, glued by blocked on-disk transposes. Only
// O(√N + tile²) elements are resident at a time, which is the paper's route
// (its reference [19]) to running the convolution over databases that do not
// fit in memory.
//
// Crash safety: by default the input file is never mutated — all passes run
// over scratch files and the finished transform is committed by a single
// atomic rename next to the data file, so a crash at any point leaves the
// input either untouched or fully transformed. The pre-durability in-place
// mode remains available behind ExternalOptions.InPlace; it records a stage
// manifest (<path>.fftstate) while running so an interrupted multi-pass
// transform is detected as ErrInterrupted instead of being read back
// half-applied.
package fft

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"periodica/internal/iofault"
)

const complexBytes = 16

// stateSuffix names the stage manifest an in-place transform leaves beside
// its data file until it completes.
const stateSuffix = ".fftstate"

// ErrInterrupted reports that a data file carries the stage manifest of an
// in-place transform that never completed: its content is part-way between
// input and output and must be restored from a copy.
var ErrInterrupted = errors.New("fft: interrupted in-place transform detected; file content is partially transformed")

// ExternalOptions tune the out-of-core transform.
type ExternalOptions struct {
	// TmpDir holds intermediate scratch files; defaults to the data file's
	// directory. The commit shadow always lives in the data file's directory
	// regardless, so the final rename never crosses a filesystem boundary
	// and stays atomic.
	TmpDir string
	// MemElements caps the number of complex values held in memory at once
	// (minimum 4·√N; default 1<<20 ≈ 16 MiB).
	MemElements int
	// InPlace mutates the data file directly (the pre-durability
	// behaviour): roughly half the scratch I/O, but a crash mid-transform
	// corrupts the file. Off by default.
	InPlace bool
	// FS overrides the file layer (fault injection in tests); nil uses the
	// real filesystem.
	FS iofault.FS
}

func (o ExternalOptions) withDefaults() ExternalOptions {
	if o.MemElements == 0 {
		o.MemElements = 1 << 20
	}
	if o.FS == nil {
		o.FS = iofault.OS()
	}
	return o
}

// TransformFile runs a forward or inverse DFT over a file of n little-endian
// complex128 values (16 bytes each: real, imaginary). n must be a power of
// two ≥ 4. The default mode is crash-safe: the result is built in scratch
// files and committed over path by atomic rename.
func TransformFile(path string, n int, inverse bool, opts ExternalOptions) error {
	opts = opts.withDefaults()
	if !IsPow2(n) || n < 4 {
		return fmt.Errorf("fft: external transform needs a power-of-two length ≥ 4, got %d", n)
	}
	// Split N = R·C with R ≤ C, both powers of two.
	r := 1 << (uint(log2(n)) / 2)
	c := n / r
	if opts.MemElements < 4*c {
		return fmt.Errorf("fft: MemElements %d too small for n=%d (need ≥ %d)", opts.MemElements, n, 4*c)
	}
	if _, err := opts.FS.Stat(path + stateSuffix); err == nil {
		return fmt.Errorf("%w (stale %s)", ErrInterrupted, path+stateSuffix)
	}
	if opts.InPlace {
		return transformInPlace(path, n, r, c, inverse, opts)
	}
	return transformShadow(path, n, r, c, inverse, opts)
}

// transformShadow runs all passes over two scratch files and commits the
// result by renaming the shadow (created in the data file's directory) over
// path. The input is opened read-only and never touched; on any error both
// scratch files are removed.
func transformShadow(path string, n, r, c int, inverse bool, opts ExternalOptions) (err error) {
	fsys := opts.FS
	src, err := iofault.Open(fsys, path)
	if err != nil {
		return err
	}
	defer func() { _ = src.Close() }() // read-only; nothing to lose on close
	if err := checkSize(src, n); err != nil {
		return err
	}

	commitDir := filepath.Dir(path)
	tmpDir := opts.TmpDir
	if tmpDir == "" {
		tmpDir = commitDir
	}
	// shadow carries the final result and must sit beside the data file so
	// the commit rename cannot cross a filesystem; scratch may live on a
	// different (faster or roomier) TmpDir.
	shadow, err := fsys.CreateTemp(commitDir, "fft-shadow-*")
	if err != nil {
		return err
	}
	shadowName := shadow.Name()
	committed := false
	shadowClosed := false
	defer func() {
		if !shadowClosed {
			_ = shadow.Close() // commit already failed; the close error adds nothing
		}
		if !committed {
			_ = fsys.Remove(shadowName) // best-effort cleanup on the error path
		}
	}()
	scratch, err := fsys.CreateTemp(tmpDir, "fft-scratch-*")
	if err != nil {
		return err
	}
	defer func() { // scratch is discarded either way; cleanup is best-effort
		_ = scratch.Close()
		_ = fsys.Remove(scratch.Name())
	}()
	if err := shadow.Truncate(int64(n) * complexBytes); err != nil {
		return err
	}
	if err := scratch.Truncate(int64(n) * complexBytes); err != nil {
		return err
	}

	tile := tileSize(opts.MemElements)
	// Step 1: transpose R×C → C×R so each original column is a contiguous
	// row of length R. Reads the input, writes the shadow.
	if err := transpose(src, shadow, r, c, tile); err != nil {
		return err
	}
	// Step 2: FFT each length-R row and apply the twiddle w_N^{s·c}.
	if err := rowPass(shadow, c, r, inverse, n, opts.MemElements); err != nil {
		return err
	}
	// Step 3: transpose back C×R → R×C.
	if err := transpose(shadow, scratch, c, r, tile); err != nil {
		return err
	}
	// Step 4: FFT each length-C row (no twiddle).
	if err := rowPass(scratch, r, c, inverse, 0, opts.MemElements); err != nil {
		return err
	}
	// Step 5: transpose R×C → C×R; reading the result row-major yields the
	// transform in natural order. Lands in the shadow for the commit.
	if err := transpose(scratch, shadow, r, c, tile); err != nil {
		return err
	}

	// Commit: fsync the shadow, rename it over the data file, fsync the
	// directory. A crash before the rename leaves the input untouched; after
	// it, the transform is complete.
	if err := shadow.Sync(); err != nil {
		return err
	}
	shadowClosed = true
	if err := shadow.Close(); err != nil {
		return err
	}
	if err := fsys.Rename(shadowName, path); err != nil {
		return err
	}
	committed = true
	return fsys.SyncDir(commitDir)
}

// transformInPlace is the pre-durability path: it mutates path directly,
// guarded by a stage manifest that marks the file suspect until the last
// pass completes. The manifest is removed whenever this function returns —
// an error return hands the (possibly mangled) file back to a caller who
// knows the transform failed — and survives only a process crash, which is
// exactly when detection is needed.
func transformInPlace(path string, n, r, c int, inverse bool, opts ExternalOptions) (err error) {
	fsys := opts.FS
	state, err := iofault.Create(fsys, path+stateSuffix)
	if err != nil {
		return err
	}
	stateName := state.Name()
	if _, err := fmt.Fprintf(state, "in-place transform n=%d inverse=%v\n", n, inverse); err != nil {
		_ = state.Close() // the write error is the one worth reporting
		return err
	}
	if err := state.Sync(); err != nil {
		_ = state.Close() // the sync error is the one worth reporting
		return err
	}
	stage := func(i int) {
		// Stage progress is advisory (existence is what gates detection);
		// its write errors must not fail the transform.
		_, _ = fmt.Fprintf(state, "stage %d done\n", i)
	}
	defer func() {
		_ = state.Close()          // advisory manifest; content already synced
		_ = fsys.Remove(stateName) // error return already marks the file suspect
	}()

	f, err := fsys.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer func() {
		// f was written in place; a close failure can hide lost writes.
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	if err := checkSize(f, n); err != nil {
		return err
	}

	dir := opts.TmpDir
	if dir == "" {
		dir = filepath.Dir(path)
	}
	scratch, err := fsys.CreateTemp(dir, "fft-scratch-*")
	if err != nil {
		return err
	}
	defer func() { // scratch is discarded either way; cleanup is best-effort
		_ = scratch.Close()
		_ = fsys.Remove(scratch.Name())
	}()
	if err := scratch.Truncate(int64(n) * complexBytes); err != nil {
		return err
	}

	tile := tileSize(opts.MemElements)
	// Step 1: transpose R×C → C×R so each original column is a contiguous
	// row of length R.
	if err := transpose(f, scratch, r, c, tile); err != nil {
		return err
	}
	stage(1)
	// Step 2: FFT each length-R row and apply the twiddle w_N^{s·c}, where
	// the row index is c and the in-row index is s.
	if err := rowPass(scratch, c, r, inverse, n, opts.MemElements); err != nil {
		return err
	}
	stage(2)
	// Step 3: transpose back C×R → R×C.
	if err := transpose(scratch, f, c, r, tile); err != nil {
		return err
	}
	stage(3)
	// Step 4: FFT each length-C row (no twiddle).
	if err := rowPass(f, r, c, inverse, 0, opts.MemElements); err != nil {
		return err
	}
	stage(4)
	// Step 5: transpose R×C → C×R; reading the result row-major yields the
	// transform in natural order.
	if err := transpose(f, scratch, r, c, tile); err != nil {
		return err
	}
	stage(5)
	return copyFile(scratch, f, n)
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

func copyFile(src, dst iofault.File, n int) error {
	if _, err := src.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if _, err := dst.Seek(0, io.SeekStart); err != nil {
		return err
	}
	_, err := io.CopyN(dst, src, int64(n)*complexBytes)
	return err
}

// AutocorrelateFile computes the lag-match counts r[p] = Σ_i x_i·x_{i+p} of
// a 0/1 indicator stored on disk (one byte per position, values 0 or 1),
// running the convolution entirely through the external FFT: the padded
// complex working arrays — 32× the input size — never reside in memory. The
// indicator file itself is never written; the transforms run in place over a
// private scratch file, which (with its stage manifest) is removed on every
// return path.
func AutocorrelateFile(indicatorPath string, n int, opts ExternalOptions) ([]int64, error) {
	opts = opts.withDefaults()
	fsys := opts.FS
	in, err := iofault.Open(fsys, indicatorPath)
	if err != nil {
		return nil, err
	}
	defer func() { _ = in.Close() }() // read-only; nothing to lose on close

	m := NextPow2(2 * n)
	if m < 4 {
		m = 4
	}
	dir := opts.TmpDir
	if dir == "" {
		dir = filepath.Dir(indicatorPath)
	}
	work, err := fsys.CreateTemp(dir, "fft-work-*")
	if err != nil {
		return nil, err
	}
	defer func() { // work is discarded either way; cleanup is best-effort
		_ = work.Close()
		_ = fsys.Remove(work.Name())
		_ = fsys.Remove(work.Name() + stateSuffix)
	}()
	if err := work.Truncate(int64(m) * complexBytes); err != nil {
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
		if err := writeComplex(work, int64(off)*complexBytes, vals[:want]); err != nil {
			return nil, err
		}
	}

	// The work file is already private scratch, so the in-place mode is the
	// right choice here: a crash only ever loses the scratch, and shadow
	// copies would double the I/O.
	workOpts := opts
	workOpts.InPlace = true
	if err := TransformFile(work.Name(), m, false, workOpts); err != nil {
		return nil, err
	}
	// Pointwise |X|² (= conj(X)·X), streamed.
	batch := make([]complex128, min(m, chunk))
	for off := 0; off < m; off += len(batch) {
		want := min(len(batch), m-off)
		if err := readComplex(work, int64(off)*complexBytes, batch[:want]); err != nil {
			return nil, err
		}
		for i := 0; i < want; i++ {
			re, im := real(batch[i]), imag(batch[i])
			batch[i] = complex(re*re+im*im, 0)
		}
		if err := writeComplex(work, int64(off)*complexBytes, batch[:want]); err != nil {
			return nil, err
		}
	}
	if err := TransformFile(work.Name(), m, true, workOpts); err != nil {
		return nil, err
	}

	out := make([]int64, n)
	for off := 0; off < n; off += len(batch) {
		want := min(len(batch), n-off)
		if err := readComplex(work, int64(off)*complexBytes, batch[:want]); err != nil {
			return nil, err
		}
		for i := 0; i < want; i++ {
			out[off+i] = int64(math.Round(real(batch[i])))
		}
	}
	return out, nil
}
