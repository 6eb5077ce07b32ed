// Package gen produces the controlled synthetic time series of the paper's
// experimental study (§4): inerrant data is a random length-P pattern drawn
// from a uniform or normal symbol distribution and repeated to span the
// requested length; noise — replacement, insertion, deletion, or any mixture
// — is then introduced randomly and uniformly over the whole series.
package gen

import (
	"fmt"
	"math/rand"
	"strings"

	"periodica/internal/alphabet"
	"periodica/internal/series"
)

// Distribution selects how pattern symbols are drawn.
type Distribution int

const (
	// Uniform draws each pattern symbol uniformly from the alphabet.
	Uniform Distribution = iota
	// Normal draws symbols from a normal distribution centred on the middle
	// of the alphabet (σ/6 standard deviation), clamped to the alphabet.
	Normal
)

func (d Distribution) String() string {
	if d == Uniform {
		return "U"
	}
	return "N"
}

// Noise is a set of noise kinds, combined with bitwise OR. The paper's
// "R ⊕ I ⊕ D" combinations distribute the noise ratio equally among the
// selected kinds.
type Noise uint8

const (
	Replacement Noise = 1 << iota
	Insertion
	Deletion
)

// Kinds returns the individual kinds present, in R, I, D order.
func (no Noise) Kinds() []Noise {
	var out []Noise
	for _, k := range []Noise{Replacement, Insertion, Deletion} {
		if no&k != 0 {
			out = append(out, k)
		}
	}
	return out
}

// ParseNoise parses a noise specification like "R", "I+D" or "R+I+D"
// (case-insensitive, '+'-separated). An empty spec means no noise.
func ParseNoise(spec string) (Noise, error) {
	var out Noise
	if strings.TrimSpace(spec) == "" {
		return out, nil
	}
	for _, part := range strings.Split(spec, "+") {
		switch strings.ToUpper(strings.TrimSpace(part)) {
		case "R":
			out |= Replacement
		case "I":
			out |= Insertion
		case "D":
			out |= Deletion
		default:
			return 0, fmt.Errorf("gen: unknown noise kind %q (want R, I, D or combinations like R+I)", part)
		}
	}
	return out, nil
}

func (no Noise) String() string {
	if no == 0 {
		return "none"
	}
	var parts []string
	if no&Replacement != 0 {
		parts = append(parts, "R")
	}
	if no&Insertion != 0 {
		parts = append(parts, "I")
	}
	if no&Deletion != 0 {
		parts = append(parts, "D")
	}
	return strings.Join(parts, "+")
}

// Config describes a synthetic series.
type Config struct {
	Length     int          // n, the series length
	Period     int          // P, the embedded period
	Sigma      int          // alphabet size
	Dist       Distribution // symbol distribution of the pattern
	Noise      Noise        // noise kinds (zero = inerrant)
	NoiseRatio float64      // fraction of positions hit by a noise event
	Seed       int64        // RNG seed
}

func (c Config) validate() error {
	if c.Length < 1 {
		return fmt.Errorf("gen: length %d < 1", c.Length)
	}
	if c.Period < 1 || c.Period > c.Length {
		return fmt.Errorf("gen: period %d outside [1,%d]", c.Period, c.Length)
	}
	if c.Sigma < 1 || c.Sigma > 26 {
		return fmt.Errorf("gen: sigma %d outside [1,26]", c.Sigma)
	}
	if c.NoiseRatio < 0 || c.NoiseRatio > 1 {
		return fmt.Errorf("gen: noise ratio %v outside [0,1]", c.NoiseRatio)
	}
	if c.NoiseRatio > 0 && c.Noise == 0 {
		return fmt.Errorf("gen: noise ratio %v with no noise kinds", c.NoiseRatio)
	}
	return nil
}

// Pattern draws a length-p pattern of symbol indices from the distribution.
func Pattern(rng *rand.Rand, p, sigma int, dist Distribution) []uint16 {
	out := make([]uint16, p)
	for i := range out {
		out[i] = drawSymbol(rng, sigma, dist)
	}
	return out
}

func drawSymbol(rng *rand.Rand, sigma int, dist Distribution) uint16 {
	if dist == Uniform {
		return uint16(rng.Intn(sigma))
	}
	v := int(rng.NormFloat64()*float64(sigma)/6 + float64(sigma)/2)
	if v < 0 {
		v = 0
	}
	if v >= sigma {
		v = sigma - 1
	}
	return uint16(v)
}

// Generate builds the series described by cfg and returns it together with
// the embedded pattern.
func Generate(cfg Config) (*series.Series, []uint16, error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	pattern := Pattern(rng, cfg.Period, cfg.Sigma, cfg.Dist)

	// Repeat the pattern past the target length by the expected number of
	// deletions so that post-noise truncation still yields cfg.Length.
	extra := 0
	if cfg.Noise&Deletion != 0 {
		extra = int(cfg.NoiseRatio*float64(cfg.Length)) + cfg.Period
	}
	data := make([]uint16, 0, cfg.Length+extra)
	for len(data) < cfg.Length+extra {
		data = append(data, pattern[len(data)%cfg.Period])
	}

	data = applyNoise(rng, data, cfg)

	// Normalize to the requested length.
	for len(data) < cfg.Length {
		data = append(data, pattern[rng.Intn(cfg.Period)])
	}
	data = data[:cfg.Length]

	s := series.FromIndices(alphabet.Letters(cfg.Sigma), data)
	return s, pattern, nil
}

func applyNoise(rng *rand.Rand, data []uint16, cfg Config) []uint16 {
	kinds := cfg.Noise.Kinds()
	if len(kinds) == 0 || cfg.NoiseRatio == 0 { //opvet:ignore floatcmp zero means unset
		return data
	}
	events := int(cfg.NoiseRatio * float64(cfg.Length))
	for e := 0; e < events; e++ {
		if len(data) == 0 {
			break
		}
		switch kinds[e%len(kinds)] {
		case Replacement:
			pos := rng.Intn(len(data))
			repl := uint16(rng.Intn(cfg.Sigma))
			for cfg.Sigma > 1 && repl == data[pos] {
				repl = uint16(rng.Intn(cfg.Sigma))
			}
			data[pos] = repl
		case Insertion:
			pos := rng.Intn(len(data) + 1)
			data = append(data, 0)
			copy(data[pos+1:], data[pos:])
			data[pos] = uint16(rng.Intn(cfg.Sigma))
		case Deletion:
			pos := rng.Intn(len(data))
			data = append(data[:pos], data[pos+1:]...)
		}
	}
	return data
}
