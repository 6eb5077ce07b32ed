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

// WriteBinary writes the series in the binary symbol-index format: a small
// header (magic, σ, n) followed by one byte per position. σ must be ≤ 256.
func WriteBinary(w io.Writer, s *Series) error {
	if s.alpha.Size() > 256 {
		return fmt.Errorf("series: binary format supports σ ≤ 256, have %d", s.alpha.Size())
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

// ReadBinary reads the format written by WriteBinary, assigning the
// single-letter alphabet of the recorded size.
func ReadBinary(r io.Reader) (*Series, error) {
	br := bufio.NewReader(r)
	header, err := br.ReadString('\n')
	if err != nil {
		return nil, err
	}
	var sigma, n int
	if _, err := fmt.Sscanf(header, "PSER1 %d %d", &sigma, &n); err != nil {
		return nil, fmt.Errorf("series: bad binary header %q", strings.TrimSpace(header))
	}
	if sigma < 1 || sigma > 26 || n < 1 {
		return nil, fmt.Errorf("series: bad binary header σ=%d n=%d", sigma, n)
	}
	alpha := alphabet.Letters(sigma)
	data := make([]uint16, n)
	buf := make([]byte, 64*1024)
	read := 0
	for read < n {
		want := min(len(buf), n-read)
		got, err := io.ReadFull(br, buf[:want])
		if err != nil {
			return nil, fmt.Errorf("series: truncated binary body: %v", err)
		}
		for i := 0; i < got; i++ {
			if int(buf[i]) >= sigma {
				return nil, fmt.Errorf("series: symbol byte %d at position %d exceeds σ=%d", buf[i], read+i, sigma)
			}
			data[read+i] = uint16(buf[i])
		}
		read += got
	}
	return &Series{alpha: alpha, data: data}, nil
}
