package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"periodica"
	"periodica/internal/alphabet"
	"periodica/internal/discretize"
	"periodica/internal/gen"
	"periodica/internal/httpapi"
	"periodica/internal/series"
	"periodica/internal/walmart"
)

// poolSize is how many distinct request bodies a workload cycles through.
// With one series per workload a run's numbers would follow that one input:
// across seeds, the response size of a single paper-dense series moves by
// about 3% and the mean over eight series by 0.5%. Sixteen would halve the
// latter, but the pool is held by the served process and would add 70% to
// paper-dense's resident set.
const poolSize = 8

// workload is one named traffic mix: a pool of requests of one shape sent to
// one endpoint of one server stack.
type workload struct {
	name     string
	endpoint string
	query    string
	// planted is the period the generator builds into every series; setup
	// refuses to run unless the expected answer contains it.
	planted int
	// distWorkers, when positive, serves /v1/mine through a dist.Coordinator
	// over this many in-process httpapi workers.
	distWorkers int
	// input generates the pool entry for one derived seed.
	input func(seed int64) (*input, error)
}

// input is one request of a workload's pool and the symbol series the server
// builds from it, which the traced pass hands to the lower layers directly.
type input struct {
	req    httpapi.MineRequest
	series *series.Series
}

const (
	endpointMine       = "/v1/mine"
	endpointCandidates = "/v1/candidates"
)

var workloads = []workload{
	{
		// The paper's own setting, with the FFT engine pinned: at n < 4096
		// "auto" picks the naive engine, and the shard-seam replay would
		// then not run the engine that was served. Output is the
		// bottleneck: about 12,000 periodicities and 8 MB per response.
		name: "paper-dense", endpoint: endpointMine, planted: 25,
		query: "conf >= 0.7 and engine fft",
		input: func(seed int64) (*input, error) { return denseInput(1024, seed) },
	},
	{
		// A bounded query over raw readings: the only workload that
		// decodes floats and discretizes, and it hits the 10,000-pattern
		// cap in enumerate.
		name: "walmart-values", endpoint: endpointMine, planted: 24,
		query: "conf >= 0.6 and period <= 400 and pairs >= 4 and pattern period <= 48 and levels 5",
		input: func(seed int64) (*input, error) {
			values := walmart.Generate(walmart.Config{Months: 15, Seed: seed})
			for i := range values {
				values[i] = min(values[i], walmartCap)
			}
			s, err := equalWidth(values, 5)
			if err != nil {
				return nil, err
			}
			return &input{req: httpapi.MineRequest{Values: values}, series: s}, nil
		},
	},
	{
		// The detection-only path of the paper's Fig. 5, with transforms of
		// 2^19, past fft.ParallelThreshold. Resolve, enumerate and result
		// building do no work here, so output-side changes must leave it
		// unchanged.
		name: "candidates-large", endpoint: endpointCandidates, planted: 24,
		query: "conf >= 0.6",
		input: func(seed int64) (*input, error) {
			s := walmart.Series(walmart.Config{Months: 365, Seed: seed}).Slice(0, 1<<18)
			return symbolsInput(s), nil
		},
	},
	{
		// The only workload that plans, dispatches and merges shards over
		// the /v1/shard wire with its checksums.
		name: "dist-2w", endpoint: endpointMine, planted: 32, distWorkers: 2,
		query: "conf >= 0.6 and period <= 512 and pairs >= 3 and pattern period <= 64",
		input: func(seed int64) (*input, error) {
			s, err := plantedSeries(16384, 32, 10, seed)
			if err != nil {
				return nil, err
			}
			return symbolsInput(s), nil
		},
	},
}

// walmartCap is where walmart-values' readings saturate. Busy Saturday hours
// pass it dozens of times in 15 months and closed hours read 0, so every
// series spans [0, walmartCap] and the server's five equal-width levels are
// the same for every seed. A capped reading stays in the top level, which
// starts at 4/5 of the cap. Uncapped, the levels followed the series' single
// largest draw, and the response size moved twice as much between seeds.
const walmartCap = 1200

func lookupWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// denseInput is paper-dense's request at series length n; the doubling pass
// calls it at other lengths.
func denseInput(n int, seed int64) (*input, error) {
	s, err := plantedSeries(n, 25, 5, seed)
	if err != nil {
		return nil, err
	}
	return symbolsInput(s), nil
}

// poolSeed derives the seed of pool entry i from the run seed.
func poolSeed(seed int64, i int) int64 { return seed*poolSize + int64(i) }

// plantedSeries is internal/gen's setting: a uniform random length-p pattern
// over sigma symbols repeated to length n, then 20% replacement noise. The
// pattern comes from a fixed generator seed and only the noise follows seed:
// the pattern's symbol mix sets how many periodicities the series has, and
// drawing it per seed moves a paper-dense mine's output by up to 30%. The
// noise replaces exactly n/5 distinct symbols, where internal/gen draws n/5
// positions with repeats; a fixed noise count steadies the output size
// across seeds by a quarter.
func plantedSeries(n, p, sigma int, seed int64) (*series.Series, error) {
	clean, _, err := gen.Generate(gen.Config{Length: n, Period: p, Sigma: sigma, Dist: gen.Uniform, Seed: 1})
	if err != nil {
		return nil, err
	}
	data := append([]uint16(nil), clean.Indices()...)
	rng := rand.New(rand.NewSource(seed))
	for _, pos := range rng.Perm(n)[:n/5] {
		repl := uint16(rng.Intn(sigma))
		for repl == data[pos] {
			repl = uint16(rng.Intn(sigma))
		}
		data[pos] = repl
	}
	return series.FromIndices(clean.Alphabet(), data), nil
}

// symbolsInput renders s as the wire's symbol string and parses it back the
// way the server does, so the traced pass sees the server's symbol indices.
func symbolsInput(s *series.Series) *input {
	text := wireText(s)
	return &input{req: httpapi.MineRequest{Symbols: text}, series: series.FromString(text)}
}

// wireText concatenates the series' symbols in linear time; Series.String
// concatenates one symbol at a time and is quadratic in n.
func wireText(s *series.Series) string {
	alpha := s.Alphabet()
	var b strings.Builder
	b.Grow(s.Len())
	for _, k := range s.Indices() {
		b.WriteString(alpha.Symbol(int(k)))
	}
	return b.String()
}

// equalWidth is the server's default discretization of raw values
// (periodica.DiscretizeEqualWidth), producing the internal series type the
// lower layers take.
func equalWidth(values []float64, levels int) (*series.Series, error) {
	lo, hi := values[0], values[0]
	for _, v := range values {
		lo, hi = min(lo, v), max(hi, v)
	}
	scheme, err := discretize.NewEqualWidth(lo, hi, levels)
	if err != nil {
		return nil, err
	}
	return scheme.Apply(values, alphabet.Letters(levels))
}

// prepared is a workload made concrete for one run seed: the pool of request
// bodies and, for each, the exact bytes a correct server answers with.
type prepared struct {
	w        *workload
	inputs   []*input
	bodies   [][]byte
	expected [][]byte
}

// prepare generates a workload's pool and computes every expected answer
// once through the library. For dist-2w that is the local single-process
// mine, which the distributed tier promises to reproduce byte for byte.
func prepare(ctx context.Context, w *workload, seed int64) (*prepared, error) {
	p := &prepared{w: w}
	for i := 0; i < poolSize; i++ {
		in, err := w.input(poolSeed(seed, i))
		if err != nil {
			return nil, fmt.Errorf("%s: generating input %d: %w", w.name, i, err)
		}
		body, want, err := expectedExchange(ctx, w, in)
		if err != nil {
			return nil, fmt.Errorf("%s: input %d: %w", w.name, i, err)
		}
		p.inputs = append(p.inputs, in)
		p.bodies = append(p.bodies, body)
		p.expected = append(p.expected, want)
	}
	return p, nil
}

// expectedExchange returns the request body for in and the response body the
// server must send for it, and checks that the answer holds the planted
// period.
func expectedExchange(ctx context.Context, w *workload, in *input) (body, want []byte, err error) {
	in.req.Query = w.query
	if body, err = json.Marshal(in.req); err != nil {
		return nil, nil, err
	}
	q, err := periodica.CompileQuery(w.query)
	if err != nil {
		return nil, nil, err
	}
	s, err := publicSeries(q, &in.req)
	if err != nil {
		return nil, nil, err
	}
	var answer any
	if w.endpoint == endpointCandidates {
		periods, err := periodica.CandidatePeriodsQueryContext(ctx, s, q)
		if err != nil {
			return nil, nil, err
		}
		if !slices.Contains(periods, w.planted) {
			return nil, nil, fmt.Errorf("planted period %d is not a candidate", w.planted)
		}
		answer = httpapi.CandidatesResponse{Threshold: q.Options().Threshold, Periods: periods}
	} else {
		res, err := periodica.MineQueryContext(ctx, s, q)
		if err != nil {
			return nil, nil, err
		}
		if !plantedFound(res, w.planted, s.Len()) {
			return nil, nil, fmt.Errorf("no full-length periodicity at the planted period %d", w.planted)
		}
		answer = res
	}
	if want, err = encodeResponse(answer); err != nil {
		return nil, nil, err
	}
	return body, want, nil
}

// publicSeries builds the request's series through the public entry points
// the server's handler uses.
func publicSeries(q *periodica.Query, req *httpapi.MineRequest) (*periodica.Series, error) {
	if req.Values != nil {
		return q.DiscretizeValues(req.Values)
	}
	return periodica.NewSeriesFromString(req.Symbols)
}

// encodeResponse renders v exactly as the server's response writer does.
func encodeResponse(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// plantedFound reports whether some symbol is periodic at period p over a
// projection spanning the whole series. Random symbols almost never pass the
// threshold over that many pairs, so this holds only where the generator
// planted the period.
func plantedFound(res *periodica.Result, p, n int) bool {
	for _, sp := range res.Periodicities {
		if sp.Period == p && sp.Pairs >= n/p-2 {
			return true
		}
	}
	return false
}
