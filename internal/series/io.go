package series

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"

	"periodica/internal/alphabet"
)

// ReadText parses a series of single-rune symbols from r, skipping
// whitespace; the alphabet is derived from the distinct runes in sorted
// order.
func ReadText(r io.Reader) (*Series, error) {
	br := bufio.NewReader(r)
	var b strings.Builder
	for {
		ch, _, err := br.ReadRune()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if !unicode.IsSpace(ch) {
			b.WriteRune(ch)
		}
	}
	if b.Len() == 0 {
		return nil, fmt.Errorf("series: empty input")
	}
	return FromString(b.String()), nil
}

// ReadValues parses numeric values, one per line (blank lines skipped),
// for discretization.
func ReadValues(r io.Reader) ([]float64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var out []float64
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		v, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return nil, fmt.Errorf("series: line %d: %v", line, err)
		}
		out = append(out, v)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("series: no values")
	}
	return out, nil
}

// maxBinarySigma is the largest alphabet the binary format holds: the
// letters a..z its reader assigns.
const maxBinarySigma = 26

// WriteBinary writes the series in the binary symbol-index format: a small
// header (magic, σ, n) followed by one byte per position. σ must be ≤ 26; a
// larger alphabet is refused before anything is written.
func WriteBinary(w io.Writer, s *Series) error {
	if s.alpha.Size() > maxBinarySigma {
		return fmt.Errorf("series: binary format supports σ ≤ %d, have %d", maxBinarySigma, s.alpha.Size())
	}
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "PSER1 %d %d\n", s.alpha.Size(), len(s.data)); err != nil {
		return err
	}
	for _, k := range s.data {
		if err := bw.WriteByte(byte(k)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// BinaryReader reads the format written by WriteBinary: the header once,
// then the body in chunks the caller sizes. Sigma and N are the header's.
type BinaryReader struct {
	Sigma, N int
	br       *bufio.Reader
	read     int
}

// NewBinaryReader parses the header of r and checks σ ∈ [1, 26] and n ≥ 1.
// When size ≥ 0 gives the bytes r holds, it also refuses a header that
// claims more symbols than follow it, before anyone sizes a buffer from n.
func NewBinaryReader(r io.Reader, size int64) (*BinaryReader, error) {
	br := bufio.NewReader(r)
	line, err := br.ReadSlice('\n') // bounded by the reader's buffer
	if err != nil {
		return nil, fmt.Errorf("series: bad binary header: %v", err)
	}
	var sigma, n int
	if _, err := fmt.Sscanf(string(line), "PSER1 %d %d", &sigma, &n); err != nil {
		return nil, fmt.Errorf("series: bad binary header %q", strings.TrimSpace(string(line)))
	}
	if sigma < 1 || sigma > maxBinarySigma || n < 1 {
		return nil, fmt.Errorf("series: bad binary header σ=%d n=%d", sigma, n)
	}
	if body := size - int64(len(line)); size >= 0 && int64(n) > body {
		return nil, fmt.Errorf("series: truncated binary body: %d symbols claimed, %d bytes present", n, body)
	}
	return &BinaryReader{Sigma: sigma, N: n, br: br}, nil
}

// Next reads the next min(len(buf), symbols left) symbol indices into buf,
// checking each against σ, and returns their number, or io.EOF once the
// body is read.
func (r *BinaryReader) Next(buf []byte) (int, error) {
	if r.read == r.N {
		return 0, io.EOF
	}
	got, err := io.ReadFull(r.br, buf[:min(len(buf), r.N-r.read)])
	if err != nil {
		return 0, fmt.Errorf("series: truncated binary body: %v", err)
	}
	for i, b := range buf[:got] {
		if int(b) >= r.Sigma {
			return 0, fmt.Errorf("series: symbol byte %d at position %d exceeds σ=%d", b, r.read+i, r.Sigma)
		}
	}
	r.read += got
	return got, nil
}

// ReadBinary reads the format written by WriteBinary, assigning the
// single-letter alphabet of the recorded size. Its buffers grow with the
// bytes read, not with the header's claim.
func ReadBinary(r io.Reader) (*Series, error) {
	br, err := NewBinaryReader(r, -1)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 64*1024)
	data := make([]uint16, 0, min(br.N, len(buf)))
	for got, err := br.Next(buf); err != io.EOF; got, err = br.Next(buf) {
		if err != nil {
			return nil, err
		}
		for _, b := range buf[:got] {
			data = append(data, uint16(b))
		}
	}
	return &Series{alpha: alphabet.Letters(br.Sigma), data: data}, nil
}
