package result

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode/utf8"
)

// chunkSize is the size of WriteJSON's one output buffer: the body reaches
// the writer in writes of this size, so encoding holds one chunk, never the
// body.
const chunkSize = 32 << 10

// ErrNonFinite reports a NaN or infinite float in a Result, which JSON
// cannot encode. WriteJSON returns it, wrapped with the field's location,
// before it writes anything.
var ErrNonFinite = errors.New("result: NaN or infinite float has no JSON encoding")

// WriteJSON writes r to w exactly as json.NewEncoder(w).Encode(r) would,
// byte for byte, trailing newline included, but without reflection and
// without building the body in memory: it streams through one fixed-size
// chunk. Every float is checked before the first write, so a result JSON
// cannot encode returns an error wrapping ErrNonFinite and w receives
// nothing. Any other error is w's, and w may then hold part of the body.
func WriteJSON(w io.Writer, r *Result) error {
	if r == nil {
		_, err := io.WriteString(w, "null\n")
		return err
	}
	if err := checkFinite(r); err != nil {
		return err
	}
	e := &jsonWriter{w: w, buf: make([]byte, 0, chunkSize)}
	e.raw(`{"Periods":`)
	if r.Periods == nil {
		e.raw("null")
	} else {
		e.raw("[")
		for i, p := range r.Periods {
			if i > 0 {
				e.raw(",")
			}
			e.integer(p)
		}
		e.raw("]")
	}
	e.raw(`,"Periodicities":`)
	if r.Periodicities == nil {
		e.raw("null")
	} else {
		e.raw("[")
		for i := range r.Periodicities {
			if i > 0 {
				e.raw(",")
			}
			e.periodicity(&r.Periodicities[i])
		}
		e.raw("]")
	}
	e.raw(`,"SingleSymbolPatterns":`)
	e.patterns(r.SingleSymbolPatterns)
	e.raw(`,"Patterns":`)
	e.patterns(r.Patterns)
	if r.Truncated {
		e.raw(`,"Truncated":true}` + "\n")
	} else {
		e.raw(`,"Truncated":false}` + "\n")
	}
	e.flush()
	return e.err
}

// checkFinite returns an error naming the first NaN or infinite float of r.
func checkFinite(r *Result) error {
	for i := range r.Periodicities {
		if f := r.Periodicities[i].Confidence; math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("%w: Periodicities[%d].Confidence is %v", ErrNonFinite, i, f)
		}
	}
	lists := [...]struct {
		name string
		pats []Pattern
	}{{"SingleSymbolPatterns", r.SingleSymbolPatterns}, {"Patterns", r.Patterns}}
	for _, l := range lists {
		for i := range l.pats {
			if f := l.pats[i].Support; math.IsNaN(f) || math.IsInf(f, 0) {
				return fmt.Errorf("%w: %s[%d].Support is %v", ErrNonFinite, l.name, i, f)
			}
		}
	}
	return nil
}

// jsonWriter appends to buf, whose capacity is chunkSize, and hands buf to w
// whenever it fills. After w's first error it writes nothing more.
type jsonWriter struct {
	w   io.Writer
	buf []byte
	err error
	// last holds the bytes of the last float formatted, lastLen of them
	// (0 before the first), and lastBits its bits: a mined result repeats
	// few distinct confidences, so most floats copy these bytes.
	last     [maxNumberLen]byte
	lastLen  int
	lastBits uint64
}

// maxNumberLen bounds the bytes of one formatted int or finite float64.
const maxNumberLen = 32

func (e *jsonWriter) flush() {
	if e.err == nil && len(e.buf) > 0 {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

// raw copies s into the chunk, flushing each time the chunk fills, so s may
// be longer than a chunk.
func (e *jsonWriter) raw(s string) {
	for {
		n := copy(e.buf[len(e.buf):cap(e.buf)], s)
		e.buf = e.buf[:len(e.buf)+n]
		s = s[n:]
		if len(s) == 0 {
			return
		}
		e.flush()
	}
}

// room flushes unless the chunk has n free bytes.
func (e *jsonWriter) room(n int) {
	if cap(e.buf)-len(e.buf) < n {
		e.flush()
	}
}

func (e *jsonWriter) integer(v int) {
	e.room(maxNumberLen)
	e.buf = strconv.AppendInt(e.buf, int64(v), 10)
}

// float formats a finite f as encoding/json does: 'f', or 'e' below 1e-6 and
// from 1e21 on, with a two-digit negative exponent trimmed ("e-07" → "e-7").
// A float with the same bits as the last one copies its bytes instead.
func (e *jsonWriter) float(f float64) {
	e.room(maxNumberLen)
	bits := math.Float64bits(f)
	if e.lastLen > 0 && bits == e.lastBits {
		e.buf = append(e.buf, e.last[:e.lastLen]...)
		return
	}
	start := len(e.buf)
	format := byte('f')
	if abs := math.Abs(f); abs > 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(e.buf, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	e.buf = b
	e.lastBits, e.lastLen = bits, copy(e.last[:], b[start:])
}

// quote writes s as a JSON string. A string encoding/json would copy
// verbatim is copied here too; any other goes through encoding/json itself.
func (e *jsonWriter) quote(s string) {
	if !verbatim(s) {
		b, _ := json.Marshal(s) // a string always marshals
		e.raw(string(b))
		return
	}
	e.raw(`"`)
	e.raw(s)
	e.raw(`"`)
}

func (e *jsonWriter) periodicity(p *Periodicity) {
	e.raw(`{"Symbol":`)
	e.quote(p.Symbol)
	e.raw(`,"Period":`)
	e.integer(p.Period)
	e.raw(`,"Position":`)
	e.integer(p.Position)
	e.raw(`,"Matches":`)
	e.integer(p.Matches)
	e.raw(`,"Pairs":`)
	e.integer(p.Pairs)
	e.raw(`,"Confidence":`)
	e.float(p.Confidence)
	e.raw("}")
}

func (e *jsonWriter) patterns(pats []Pattern) {
	if pats == nil {
		e.raw("null")
		return
	}
	e.raw("[")
	for i := range pats {
		if i > 0 {
			e.raw(",")
		}
		e.raw(`{"Period":`)
		e.integer(pats[i].Period)
		e.raw(`,"Text":`)
		e.quote(pats[i].Text)
		e.raw(`,"Support":`)
		e.float(pats[i].Support)
		e.raw("}")
	}
	e.raw("]")
}

// Byte masks for the word-at-a-time scan: every byte 0x01, every byte 0x80,
// and every byte the don't-care '*' that fills most pattern text.
const (
	ones  = 0x0101010101010101
	highs = 0x8080808080808080
	stars = '*' * ones
)

// dontCareRun is 64 don't-cares, which verbatim skips in one comparison.
const dontCareRun = "****************************************************************"

// hasByte reports whether some byte of w equals c.
func hasByte(w uint64, c byte) bool {
	x := w ^ uint64(c)*ones
	return (x-ones)&^x&highs != 0
}

// plainWord reports whether all eight bytes of w are ASCII that encoding/json
// with HTML escaping copies verbatim: no control byte, '"', '\\', '<', '>'
// or '&', and no byte of a multi-byte rune.
func plainWord(w uint64) bool {
	return w&highs == 0 && (w-0x20*ones)&highs == 0 &&
		!hasByte(w, '"') && !hasByte(w, '\\') && !hasByte(w, '<') && !hasByte(w, '>') && !hasByte(w, '&')
}

// verbatim reports whether encoding/json writes s as '"' + s + '"': it skips
// whole runs of 64 don't-cares, scans eight bytes at a time while the words
// are plain ASCII (all-'*' words in one comparison), then byte by byte,
// accepting valid UTF-8 other than U+2028 and U+2029.
func verbatim(s string) bool {
	for len(s) >= len(dontCareRun) && s[:len(dontCareRun)] == dontCareRun {
		s = s[len(dontCareRun):]
	}
	for len(s) >= 8 {
		w := uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
		if w != stars && !plainWord(w) {
			break
		}
		s = s[8:]
	}
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c < 0x20 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
				return false
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 || r == '\u2028' || r == '\u2029' {
			return false
		}
		i += size
	}
	return true
}
