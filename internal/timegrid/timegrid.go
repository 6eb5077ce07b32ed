// Package timegrid turns irregular, timestamped observations — the event
// logs of the paper's §2.1 — into the regular symbol series the miner
// consumes: events are binned at a fixed resolution, empty bins get an
// explicit idle symbol, and collisions resolve by policy.
package timegrid

import (
	"fmt"
	"sort"
	"time"

	"periodica/internal/alphabet"
	"periodica/internal/series"
)

// Event is one timestamped nominal observation.
type Event struct {
	Time   time.Time
	Symbol string
}

// Conflict selects how multiple events in one bin resolve.
type Conflict int

const (
	// KeepFirst keeps the earliest event of the bin.
	KeepFirst Conflict = iota
	// KeepLast keeps the latest event of the bin.
	KeepLast
	// Majority keeps the bin's most frequent symbol (earliest wins ties).
	Majority
)

// Config drives Grid.
type Config struct {
	// Bin is the grid resolution; required.
	Bin time.Duration
	// Idle is the symbol assigned to bins with no event; required, and must
	// not collide with an event symbol.
	Idle string
	// Conflict resolves multi-event bins; default KeepFirst.
	Conflict Conflict
	// MaxBins guards against runaway grids from misordered timestamps;
	// default 10 million.
	MaxBins int
}

// Grid bins events into a regular symbol series spanning the first to the
// last event. The alphabet is the idle symbol followed by the distinct event
// symbols in order of first appearance.
func Grid(events []Event, cfg Config) (*series.Series, error) {
	if len(events) == 0 {
		return nil, fmt.Errorf("timegrid: no events")
	}
	if cfg.Bin <= 0 {
		return nil, fmt.Errorf("timegrid: bin duration %v must be positive", cfg.Bin)
	}
	if cfg.Idle == "" {
		return nil, fmt.Errorf("timegrid: idle symbol required")
	}
	if cfg.MaxBins == 0 {
		cfg.MaxBins = 10_000_000
	}
	sorted := append([]Event(nil), events...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Time.Before(sorted[j].Time) })

	start := sorted[0].Time
	span := sorted[len(sorted)-1].Time.Sub(start)
	bins := int(span/cfg.Bin) + 1
	if bins > cfg.MaxBins {
		return nil, fmt.Errorf("timegrid: %d bins exceed the %d-bin guard", bins, cfg.MaxBins)
	}

	symbols := []string{cfg.Idle}
	index := map[string]int{cfg.Idle: 0}
	for _, e := range sorted {
		if e.Symbol == "" {
			return nil, fmt.Errorf("timegrid: empty event symbol at %v", e.Time)
		}
		if e.Symbol == cfg.Idle {
			return nil, fmt.Errorf("timegrid: event symbol collides with idle symbol %q", cfg.Idle)
		}
		if _, ok := index[e.Symbol]; !ok {
			index[e.Symbol] = len(symbols)
			symbols = append(symbols, e.Symbol)
		}
	}
	alpha, err := alphabet.New(symbols...)
	if err != nil {
		return nil, err
	}

	grid := make([]uint16, bins) // zero value = idle
	switch cfg.Conflict {
	case KeepFirst:
		filled := make([]bool, bins)
		for _, e := range sorted {
			b := int(e.Time.Sub(start) / cfg.Bin)
			if !filled[b] {
				filled[b] = true
				grid[b] = uint16(index[e.Symbol])
			}
		}
	case KeepLast:
		for _, e := range sorted {
			b := int(e.Time.Sub(start) / cfg.Bin)
			grid[b] = uint16(index[e.Symbol])
		}
	case Majority:
		counts := map[int]map[uint16]int{}
		order := map[int][]uint16{}
		for _, e := range sorted {
			b := int(e.Time.Sub(start) / cfg.Bin)
			k := uint16(index[e.Symbol])
			if counts[b] == nil {
				counts[b] = map[uint16]int{}
			}
			if counts[b][k] == 0 {
				order[b] = append(order[b], k)
			}
			counts[b][k]++
		}
		for b, bySym := range counts {
			best, bestCount := uint16(0), 0
			for _, k := range order[b] {
				if bySym[k] > bestCount {
					best, bestCount = k, bySym[k]
				}
			}
			grid[b] = best
		}
	default:
		return nil, fmt.Errorf("timegrid: unknown conflict policy %d", cfg.Conflict)
	}
	return series.FromIndices(alpha, grid), nil
}
