package core

import (
	"fmt"
	"sort"

	"periodica/internal/bitvec"
	"periodica/internal/conv"
	"periodica/internal/series"
)

// MineLiteral executes the paper's Fig. 2 algorithm step by step, exactly as
// written: (1–2) map the symbols and form the binary vector T′; (3) compute
// the convolution components C^T; (4) for each period p = 1..n/2, (a) take
// the set W_p of powers of two in c^T_p, (b) decode each power into its
// symbol and position to obtain the W_{p,k,l} sets and thus every
// F2(s_k, π_{p,l}(T)), (c) apply the threshold, (d) form the single-symbol
// patterns, and (e) form the candidate patterns and estimate their supports
// from the same-occurrence tuples W′_p. It shares no evaluation shortcuts
// with MineWorkers — the component bit-vectors are materialized and decoded
// power by power — so agreement between the two is a machine-checked reading of
// the paper. Intended for verification; use MineWorkers for real workloads.
//
// maxPatterns caps step (e)'s enumeration (0 = 10000): at loose thresholds
// the paper's Cartesian product is exponential in the qualifying positions,
// so an uncapped run can explode on degenerate inputs.
func MineLiteral(s *series.Series, psi float64, maxPatterns int) (*Result, error) {
	if psi <= 0 || psi > 1 {
		return nil, fmt.Errorf("core: threshold ψ=%v outside (0,1]", psi)
	}
	if maxPatterns == 0 {
		maxPatterns = 10000
	}
	n := s.Len()
	if n < 2 {
		return nil, fmt.Errorf("core: series too short (n=%d)", n)
	}
	sigma := s.Alphabet().Size()
	m := conv.Map(s) // steps 1–2: ordering and binary vector

	res := &Result{N: n, Sigma: sigma, Threshold: psi}
	periodSet := map[int]bool{}
	var component *bitvec.Vector
	for p := 1; p <= n/2; p++ { // step 4
		component = m.Component(p, component) // c^T_p
		// (a)+(b): decode the powers of two into per-(k,l) match sets; the
		// paper's W_{p,k,l} cardinalities are the F2 values, and the decoded
		// positions also give the occurrence indices the support estimation
		// of step (e) matches on.
		type cell struct {
			f2  int
			occ *bitvec.Vector
		}
		cells := map[[2]int]*cell{}
		total := n / p
		component.ForEach(func(w int) {
			k, i, l := conv.DecodePower(w, sigma, n, p)
			c := cells[[2]int{k, l}]
			if c == nil {
				c = &cell{occ: bitvec.New(total)}
				cells[[2]int{k, l}] = c
			}
			c.f2++
			c.occ.Set(i / p)
		})

		// (c): threshold test per (k, l).
		var group []SymbolPeriodicity
		slots := make([][]slot, p)
		for key, c := range cells {
			k, l := key[0], key[1]
			pairs := pairsAt(n, p, l)
			if pairs < 1 {
				continue
			}
			conf := float64(c.f2) / float64(pairs)
			if conf >= psi {
				group = append(group, SymbolPeriodicity{
					Symbol: k, Period: p, Position: l,
					F2: c.f2, Pairs: pairs, Confidence: conf,
				})
				slots[l] = append(slots[l], slot{symbol: k, occ: c.occ})
			}
		}
		if len(group) == 0 {
			continue
		}
		periodSet[p] = true
		sort.Slice(group, func(i, j int) bool {
			a, b := group[i], group[j]
			if a.Position != b.Position {
				return a.Position < b.Position
			}
			return a.Symbol < b.Symbol
		})
		res.Periodicities = append(res.Periodicities, group...)
		// (d): periodic single-symbol patterns.
		for _, sp := range group {
			res.SingleSymbol = append(res.SingleSymbol, singlePattern(sp))
		}
		// (e): candidate patterns from the Cartesian product, with support
		// counted over shared occurrence indices (the W′_p tuples).
		distinct := map[int]bool{}
		for _, sp := range group {
			distinct[sp.Position] = true
		}
		if len(distinct) < 2 {
			continue
		}
		for l := range slots {
			sort.Slice(slots[l], func(i, j int) bool { return slots[l][i].symbol < slots[l][j].symbol })
		}
		e := &enumerator{slots: slots, period: p, total: total, psi: psi,
			max: maxPatterns - len(res.Patterns)}
		e.walk(0, nil)
		res.Patterns = append(res.Patterns, e.found...)
		if e.truncated {
			res.PatternsTruncated = true
			break
		}
	}
	for p := range periodSet {
		res.Periods = append(res.Periods, p)
	}
	sort.Ints(res.Periods)
	sort.Slice(res.Patterns, func(i, j int) bool {
		if res.Patterns[i].Period != res.Patterns[j].Period {
			return res.Patterns[i].Period < res.Patterns[j].Period
		}
		if res.Patterns[i].Support != res.Patterns[j].Support { //opvet:ignore floatcmp exact tie-break in sort comparator
			return res.Patterns[i].Support > res.Patterns[j].Support
		}
		return lessFixed(res.Patterns[i].Fixed, res.Patterns[j].Fixed)
	})
	return res, nil
}
