// Package walmart synthesizes the paper's Wal-Mart workload: hourly counts of
// timed sales transactions over 15 months. The real 70 GB Teradata database
// is not available, so the generator embeds the structures the paper's
// Tables 1–3 hinge on — a daily shape (period 24) with quiet overnight hours
// and a low-traffic early-morning hour, weekend modulation (period 168), and
// a daylight-saving one-hour phase shift that displaces the mid-year
// repetition by one hour (the paper's "5.5 months plus one hour" ≈ 3961 h
// finding). Discretization follows the paper exactly: "very low" is zero
// transactions per hour, "low" below 200, and each further level spans 200.
package walmart

import (
	"math"
	"math/rand"

	"periodica/internal/alphabet"
	"periodica/internal/discretize"
	"periodica/internal/series"
)

// Config describes a synthetic store trace.
type Config struct {
	// Months of hourly data; the paper's database spans 15. 30-day months.
	Months int
	// Seed for the noise generator.
	Seed int64
	// NoiseSD is the multiplicative log-normal noise on busy hours; default
	// 0.15.
	NoiseSD float64
	// DST applies the one-hour daylight-saving phase shift during the
	// "summer" half of each year.
	DST bool
	// SpecialDayProb is the chance a day runs extended hours (holiday
	// seasons, inventory nights), putting light overnight traffic where the
	// store is normally closed; this keeps even the most stable hourly
	// patterns below 100% confidence, as in the paper's Table 2. Default
	// 0.03; set negative to disable.
	SpecialDayProb float64
}

func (c Config) withDefaults() Config {
	if c.Months == 0 {
		c.Months = 15
	}
	if c.NoiseSD == 0 { //opvet:ignore floatcmp zero means unset
		c.NoiseSD = 0.15
	}
	if c.SpecialDayProb == 0 { //opvet:ignore floatcmp zero means unset
		c.SpecialDayProb = 0.03
	}
	if c.SpecialDayProb < 0 {
		c.SpecialDayProb = 0
	}
	return c
}

// hourShape is the base transactions-per-hour profile of one day: zero
// overnight, a quiet sub-200 hour in the early morning (hour 7, the paper's
// Table 2 pattern "(b,7)"), and a peak through the afternoon and evening.
var hourShape = [24]float64{
	0, 0, 0, 0, 0, 0, // 00:00–05:59 closed
	90,  // 06
	150, // 07  low: fewer than 200 transactions
	320, // 08
	480, // 09
	620, // 10
	740, // 11
	820, // 12
	800, // 13
	760, // 14
	730, // 15
	750, // 16
	810, // 17
	780, // 18
	620, // 19
	430, // 20
	260, // 21
	120, // 22
	0,   // 23 closed
}

// weekdayFactor scales each day of the week (0 = Monday).
var weekdayFactor = [7]float64{1.0, 0.96, 0.98, 1.02, 1.1, 1.3, 1.18}

// Generate returns hourly transaction counts for cfg.Months × 30 days.
func Generate(cfg Config) []float64 {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	days := cfg.Months * 30
	out := make([]float64, 0, days*24)
	for day := 0; day < days; day++ {
		df := weekdayFactor[day%7]
		shift := 0
		if cfg.DST && summer(day) {
			shift = 1
		}
		special := rng.Float64() < cfg.SpecialDayProb
		for hour := 0; hour < 24; hour++ {
			base := hourShape[(hour+24-shift)%24]
			v := 0.0
			switch {
			case base > 0:
				v = base * df * math.Exp(rng.NormFloat64()*cfg.NoiseSD)
				if special {
					v += 120 + 160*rng.Float64() // promotional traffic
				}
			case special:
				v = 40 + 80*rng.Float64() // extended hours: light traffic
			}
			out = append(out, v)
		}
	}
	return out
}

// summer reports whether day-of-year (30-day months) falls in the
// daylight-saving window: April through October.
func summer(day int) bool {
	doy := day % 360
	return doy >= 90 && doy < 300
}

// Alphabet returns the five-level alphabet a..e used by the discretization
// (a = very low, …, e = very high).
func Alphabet() *alphabet.Alphabet { return alphabet.Letters(5) }

// Scheme returns the paper's Wal-Mart discretization: very low = zero
// transactions per hour, low < 200, then 200-wide bands.
func Scheme() discretize.Scheme {
	// Zero maps below the first breakpoint; any positive count below 200 is
	// "low".
	s, err := discretize.NewBreakpoints([]float64{1e-9, 200, 400, 600})
	if err != nil {
		panic(err)
	}
	return s
}

// Discretize converts hourly counts into the five-level symbol series.
func Discretize(values []float64) *series.Series {
	s, err := Scheme().Apply(values, Alphabet())
	if err != nil {
		panic(err)
	}
	return s
}

// Series is Generate followed by Discretize.
func Series(cfg Config) *series.Series {
	return Discretize(Generate(cfg))
}
