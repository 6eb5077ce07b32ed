package series

import (
	"bytes"
	"testing"
)

// FuzzReadBinary ensures arbitrary bytes never panic the binary reader, and
// that whatever parses round-trips.
func FuzzReadBinary(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteBinary(&seed, FromString("abcabbabcb")); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte("PSER1 3 2\nab"))
	f.Add([]byte("garbage"))
	f.Add([]byte("PSER1 3 268435456\n\x00\x01")) // claims n = 2^28 in 20 bytes
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteBinary(&out, s); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		back, err := ReadBinary(&out)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if back.String() != s.String() {
			t.Fatal("binary round trip changed the series")
		}
	})
}

// FuzzProjectionF2 checks the F2/projection consistency invariant on
// arbitrary series and parameters.
func FuzzProjectionF2(f *testing.F) {
	f.Add([]byte("abcabbabcb"), uint8(3), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, pRaw, lRaw uint8) {
		if len(data) < 2 || len(data) > 300 {
			t.Skip()
		}
		s := FromString(string(normalize(data)))
		p := int(pRaw)%s.Len() + 1
		l := int(lRaw) % p
		for k := 0; k < s.Alphabet().Size(); k++ {
			if got, want := s.F2(k, p, l), F2String(s.Projection(p, l), k); got != want {
				t.Fatalf("F2(%d,%d,%d) = %d, want %d", k, p, l, got, want)
			}
		}
	})
}

func normalize(data []byte) []byte {
	out := make([]byte, len(data))
	for i, b := range data {
		out[i] = 'a' + b%5
	}
	return out
}
