// Package store is an embedded, disk-backed store for symbol time series:
// an append-only log cut into segments, each persisted together with a
// periodicity summary — the segment's core.Counts table: the
// per-(symbol, period, position) consecutive-match counts for all periods up
// to a bound, plus up to that bound of boundary symbols at each end. Queries
// over any contiguous segment range answer from summaries alone, merged left
// to right with Counts.Merge's boundary stitching; the symbol data itself is
// only read when a segment's summary is missing. This is the database shape
// the paper's incremental/merge-mining follow-on work (its reference [4])
// points at.
package store

import "periodica/internal/core"

// summarize builds the summary of one symbol slice.
func summarize(data []uint16, sigma, maxPeriod int) (*core.Counts, error) {
	c, err := core.NewCounts(sigma, maxPeriod)
	if err != nil {
		return nil, err
	}
	for _, k := range data {
		if err := c.Append(int(k)); err != nil {
			return nil, err
		}
	}
	return c, nil
}
