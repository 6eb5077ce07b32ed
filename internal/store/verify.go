// Verify and Repair: the offline integrity pass over a store directory.
// Verify is read-only and reports every problem it can find — frame and
// checksum failures, sequence gaps, shape mismatches, orphaned summaries,
// stray commit temps, a legacy unframed manifest. Repair applies the
// recovery state machine: sweep temps, rewrite or reconstruct the manifest,
// rebuild summaries from raw segments, and quarantine everything after the
// first unrecoverable segment so the store truncates to its longest clean
// prefix instead of staying bricked. Both work on directories too damaged
// for Open to succeed.
package store

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"

	"periodica/internal/iofault"
	"periodica/internal/obs"
)

// Problem is one integrity issue found in a store directory.
type Problem struct {
	File   string // base name within the store directory
	Detail string
}

func (p Problem) String() string { return p.File + ": " + p.Detail }

// Report is the outcome of a Verify or Repair pass.
type Report struct {
	Dir      string
	Segments int // healthy segments forming the clean prefix
	Symbols  int // symbols held by that clean prefix
	Problems []Problem
	Actions  []string // repair actions taken (Repair only)
}

// Clean reports whether the pass found no problems.
func (r *Report) Clean() bool { return len(r.Problems) == 0 }

func (r *Report) problemf(file, format string, args ...any) {
	r.Problems = append(r.Problems, Problem{File: file, Detail: fmt.Sprintf(format, args...)})
}

func (r *Report) actionf(format string, args ...any) {
	r.Actions = append(r.Actions, fmt.Sprintf(format, args...))
	obs.Recovery().RepairActions.Inc()
}

// Verify checks every persisted file of the store at dir without modifying
// anything. It returns an error only when the directory itself cannot be
// read; file-level damage is reported in the Report.
func Verify(dir string) (*Report, error) { return VerifyFS(iofault.OS(), dir) }

// VerifyFS is Verify over an explicit file layer.
func VerifyFS(fsys iofault.FS, dir string) (*Report, error) {
	rep := &Report{Dir: dir}
	scan, err := scanDir(fsys, dir)
	if err != nil {
		return nil, err
	}
	for _, name := range scan.temps {
		rep.problemf(name, "stray commit temp file (uncommitted atomic write; repair removes it)")
	}

	m, legacy, merr := readManifest(fsys, dir)
	haveManifest := merr == nil
	switch {
	case haveManifest && legacy:
		rep.problemf(manifestName, "legacy unframed manifest (no checksum; repair rewrites it framed)")
	case errors.Is(merr, fs.ErrNotExist):
		rep.problemf(manifestName, "missing (repair reconstructs it from summaries when possible)")
	case merr != nil:
		rep.problemf(manifestName, "%v", merr)
	}

	// Walk segments in index order; the clean prefix ends at the first
	// missing, out-of-sequence, or damaged segment.
	prefixIntact := true
	for i, name := range scan.segs {
		idx, ok := segIndex(name)
		if !ok || idx != i {
			rep.problemf(name, "out of sequence (want index %d; repair truncates to the clean prefix)", i)
			prefixIntact = false
			continue
		}
		segLen, segErr := verifySegmentFile(fsys, filepath.Join(dir, name), m, haveManifest)
		if segErr != nil {
			rep.problemf(name, "%v", segErr)
			prefixIntact = false
		}
		sumFile := sumName(i)
		rec, sumErr := readSummaryRecord(fsys, filepath.Join(dir, sumFile))
		switch {
		case errors.Is(sumErr, fs.ErrNotExist):
			rep.problemf(sumFile, "missing (repair rebuilds it from %s)", name)
		case sumErr != nil:
			rep.problemf(sumFile, "%v", sumErr)
		case haveManifest && (rec.Sigma != m.Sigma || rec.MaxPeriod != m.MaxPeriod):
			rep.problemf(sumFile, "shape σ=%d maxPeriod=%d does not match manifest σ=%d maxPeriod=%d",
				rec.Sigma, rec.MaxPeriod, m.Sigma, m.MaxPeriod)
		case segErr == nil && rec.Length != segLen:
			rep.problemf(sumFile, "summarizes %d symbols but segment holds %d", rec.Length, segLen)
		}
		if prefixIntact && segErr == nil {
			rep.Segments++
			rep.Symbols += segLen
		}
	}
	for _, name := range scan.orphanSums {
		rep.problemf(name, "summary without a segment (repair quarantines it)")
	}
	return rep, nil
}

// Repair applies the recovery state machine to the store at dir and returns
// what it did. After a successful repair, Verify reports clean (unless the
// directory held nothing recoverable at all).
func Repair(dir string) (*Report, error) { return RepairFS(iofault.OS(), dir) }

// RepairFS is Repair over an explicit file layer.
func RepairFS(fsys iofault.FS, dir string) (*Report, error) {
	rep := &Report{Dir: dir}
	scan, err := scanDir(fsys, dir)
	if err != nil {
		return nil, err
	}
	for _, name := range scan.temps {
		if err := fsys.Remove(filepath.Join(dir, name)); err != nil {
			return nil, err
		}
		obs.Recovery().StrayTempsRemoved.Inc()
		rep.actionf("removed stray commit temp %s", name)
	}

	m, legacy, merr := readManifest(fsys, dir)
	if merr != nil {
		if !errors.Is(merr, fs.ErrNotExist) && !isCorrupt(merr) {
			return nil, merr
		}
		rm, ok := reconstructManifest(fsys, dir, scan)
		if !ok {
			rep.problemf(manifestName, "unreadable and not reconstructible (no decodable summary to take σ/maxPeriod from)")
			return rep, nil
		}
		m = rm
		legacy = true // force the framed rewrite below
		rep.actionf("reconstructed manifest (σ=%d maxPeriod=%d segment=%d)", m.Sigma, m.MaxPeriod, m.SegmentSize)
	}
	helper := &DB{fs: fsys, dir: dir, opt: Options{Sigma: m.Sigma, MaxPeriod: m.MaxPeriod, SegmentSize: m.SegmentSize}}
	if legacy {
		if err := helper.writeManifest(); err != nil {
			return nil, err
		}
		rep.actionf("rewrote manifest as a framed checksummed record")
	}

	// Find the longest clean prefix of segments; everything after it is
	// quarantined (segments cannot be rebuilt — the summaries are lossy).
	cut := -1
	for i, name := range scan.segs {
		idx, ok := segIndex(name)
		if !ok || idx != i {
			cut = i
			break
		}
		segLen, segErr := verifySegmentFile(fsys, filepath.Join(dir, name), m, true)
		if segErr != nil {
			obs.Recovery().ChecksumFailures.Inc()
			cut = i
			break
		}
		// Segment healthy: make sure its summary is too, else rebuild.
		rec, sumErr := readSummaryRecord(fsys, filepath.Join(dir, sumName(i)))
		healthy := sumErr == nil && rec.Sigma == m.Sigma && rec.MaxPeriod == m.MaxPeriod && rec.Length == segLen
		if !healthy {
			data, err := helper.readSegmentData(i)
			if err != nil {
				return nil, err
			}
			sum, err := summarize(data, m.Sigma, m.MaxPeriod)
			if err != nil {
				return nil, err
			}
			if err := helper.writeSummary(i, sum); err != nil {
				return nil, err
			}
			obs.Recovery().SummariesRebuilt.Inc()
			rep.actionf("rebuilt summary %s from its segment", sumName(i))
		}
		rep.Segments++
		rep.Symbols += segLen
	}
	if cut >= 0 {
		for _, name := range scan.segs[cut:] {
			if err := helper.quarantineFile(name); err != nil {
				return nil, err
			}
			rep.actionf("quarantined %s", name)
			idx, ok := segIndex(name)
			if !ok {
				continue
			}
			if _, err := fsys.Stat(filepath.Join(dir, sumName(idx))); err == nil {
				if err := helper.quarantineFile(sumName(idx)); err != nil {
					return nil, err
				}
				rep.actionf("quarantined %s", sumName(idx))
			}
		}
	}
	// Quarantine summaries with no segment (their segment may just have
	// been quarantined above, or was never committed).
	postScan, err := scanDir(fsys, dir)
	if err != nil {
		return nil, err
	}
	for _, name := range postScan.orphanSums {
		if err := helper.quarantineFile(name); err != nil {
			return nil, err
		}
		rep.actionf("quarantined orphan summary %s", name)
	}
	return rep, nil
}

// Verify runs the offline integrity pass over the store's directory (sealed
// state only; the in-memory active segment is not on disk yet).
func (db *DB) Verify() (*Report, error) { return VerifyFS(db.fs, db.dir) }

// dirScan is the classified listing of a store directory.
type dirScan struct {
	segs       []string // *.seg sorted by name
	sums       map[int]bool
	orphanSums []string // *.sum with no matching *.seg
	temps      []string // files containing the commit-temp marker
}

func scanDir(fsys iofault.FS, dir string) (*dirScan, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	scan := &dirScan{sums: make(map[int]bool)}
	segIdx := make(map[int]bool)
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		switch {
		case strings.Contains(name, tmpMarker):
			scan.temps = append(scan.temps, name)
		case filepath.Ext(name) == ".seg":
			scan.segs = append(scan.segs, name)
			if idx, ok := segIndex(name); ok {
				segIdx[idx] = true
			}
		case filepath.Ext(name) == ".sum":
			var idx int
			if _, err := fmt.Sscanf(name, "%d.sum", &idx); err == nil {
				scan.sums[idx] = true
			} else {
				scan.orphanSums = append(scan.orphanSums, name)
			}
		}
	}
	sort.Strings(scan.segs)
	for idx := range scan.sums {
		if !segIdx[idx] {
			scan.orphanSums = append(scan.orphanSums, sumName(idx))
		}
	}
	sort.Strings(scan.orphanSums)
	return scan, nil
}

func segIndex(name string) (int, bool) {
	var idx int
	if _, err := fmt.Sscanf(name, "%d.seg", &idx); err != nil {
		return 0, false
	}
	return idx, true
}

// verifySegmentFile fully checks one segment frame and returns its length.
func verifySegmentFile(fsys iofault.FS, path string, m manifest, haveManifest bool) (int, error) {
	raw, err := iofault.ReadFile(fsys, path)
	if err != nil {
		return 0, err
	}
	payload, err := decodeFrame(raw, kindSegment)
	if err != nil {
		return 0, err
	}
	s, err := decodeSegmentPayload(payload)
	if err != nil {
		return 0, err
	}
	if haveManifest && s.Alphabet().Size() != m.Sigma {
		return 0, corruptf("segment: alphabet size %d, manifest has σ=%d", s.Alphabet().Size(), m.Sigma)
	}
	return s.Len(), nil
}

// readSummaryRecord reads and validates one summary frame.
func readSummaryRecord(fsys iofault.FS, path string) (*summaryRecord, error) {
	raw, err := iofault.ReadFile(fsys, path)
	if err != nil {
		return nil, err
	}
	payload, err := decodeFrame(raw, kindSummary)
	if err != nil {
		return nil, err
	}
	return decodeSummaryPayload(payload)
}

// reconstructManifest derives a manifest from the surviving files: σ and
// maxPeriod from the first decodable summary, the segment size from the
// largest surviving segment (a lower bound — flushed segments may be short).
func reconstructManifest(fsys iofault.FS, dir string, scan *dirScan) (manifest, bool) {
	var m manifest
	found := false
	for idx := range scan.sums {
		rec, err := readSummaryRecord(fsys, filepath.Join(dir, sumName(idx)))
		if err != nil {
			continue
		}
		m = manifest{Version: 1, Sigma: rec.Sigma, MaxPeriod: rec.MaxPeriod}
		found = true
		break
	}
	if !found {
		return manifest{}, false
	}
	for _, name := range scan.segs {
		if n, err := verifySegmentFile(fsys, filepath.Join(dir, name), m, true); err == nil && n > m.SegmentSize {
			m.SegmentSize = n
		}
	}
	if m.SegmentSize < m.MaxPeriod {
		m.SegmentSize = m.MaxPeriod
	}
	return m, m.SegmentSize > 0
}
