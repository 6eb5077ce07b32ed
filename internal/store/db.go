package store

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"

	"periodica/internal/alphabet"
	"periodica/internal/core"
	"periodica/internal/iofault"
	"periodica/internal/obs"
	"periodica/internal/series"
)

// Options configure a store.
type Options struct {
	// Sigma is the alphabet size (1..26); symbols are indices 0..σ−1.
	Sigma int
	// MaxPeriod bounds the periods summarized per segment.
	MaxPeriod int
	// SegmentSize is the number of symbols per sealed segment; must be at
	// least MaxPeriod so neighbouring summaries stitch exactly.
	SegmentSize int
}

func (o Options) validate() error {
	if o.Sigma < 1 || o.Sigma > 26 {
		return fmt.Errorf("store: sigma %d outside [1,26]", o.Sigma)
	}
	if o.MaxPeriod < 1 {
		return fmt.Errorf("store: maxPeriod %d < 1", o.MaxPeriod)
	}
	if o.SegmentSize < o.MaxPeriod {
		return fmt.Errorf("store: segment size %d below maxPeriod %d", o.SegmentSize, o.MaxPeriod)
	}
	return nil
}

const (
	manifestName  = "manifest.json"
	quarantineDir = "quarantine"
	tmpMarker     = ".tmp-"
)

type manifest struct {
	Version     int `json:"version"`
	Sigma       int `json:"sigma"`
	MaxPeriod   int `json:"maxPeriod"`
	SegmentSize int `json:"segmentSize"`
}

// DB is an append-only, segmented symbol log with per-segment periodicity
// summaries. Sealed segments are durable: every persisted file is a
// checksummed frame committed by write-temp → fsync → rename → dir-fsync, so
// a crash loses at most the in-memory active segment, never sealed data, and
// a torn or bit-flipped file is detected on read instead of being served.
type DB struct {
	fs     iofault.FS
	dir    string
	opt    Options
	alpha  *alphabet.Alphabet
	sealed []*summary // in segment order
	active []uint16
	closed bool
}

// OpenExisting loads a store created earlier, taking its options from the
// on-disk manifest.
func OpenExisting(dir string) (*DB, error) {
	return OpenExistingFS(iofault.OS(), dir)
}

// OpenExistingFS is OpenExisting over an explicit file layer.
func OpenExistingFS(fsys iofault.FS, dir string) (*DB, error) {
	m, _, err := readManifest(fsys, dir)
	if err != nil {
		return nil, fmt.Errorf("store: no usable store at %s: %v", dir, err)
	}
	return OpenFS(fsys, dir, Options{Sigma: m.Sigma, MaxPeriod: m.MaxPeriod, SegmentSize: m.SegmentSize})
}

// Sigma returns the store's alphabet size.
func (db *DB) Sigma() int { return db.opt.Sigma }

// MaxPeriod returns the store's summarized period bound.
func (db *DB) MaxPeriod() int { return db.opt.MaxPeriod }

// Open creates the store in dir (creating the directory if needed) or loads
// an existing one. For an existing store, opt must match its manifest.
// Opening runs a recovery pass: stray commit temps are swept, a torn tail
// segment (crash mid-seal) is quarantined, and missing or corrupt summaries
// are rebuilt from their raw segments.
func Open(dir string, opt Options) (*DB, error) {
	return OpenFS(iofault.OS(), dir, opt)
}

// OpenFS is Open over an explicit file layer (tests inject faults here).
func OpenFS(fsys iofault.FS, dir string, opt Options) (*DB, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	db := &DB{fs: fsys, dir: dir, opt: opt, alpha: alphabet.Letters(opt.Sigma)}

	m, legacy, err := readManifest(fsys, dir)
	switch {
	case err == nil:
		if m.Sigma != opt.Sigma || m.MaxPeriod != opt.MaxPeriod || m.SegmentSize != opt.SegmentSize {
			return nil, fmt.Errorf("store: options %+v do not match existing manifest %+v", opt, m)
		}
		if legacy {
			// Upgrade a pre-durability bare-JSON manifest to the framed,
			// checksummed form (atomically, like every other write).
			if err := db.writeManifest(); err != nil {
				return nil, err
			}
		}
		if err := db.recoverAndLoad(); err != nil {
			return nil, err
		}
	case errors.Is(err, fs.ErrNotExist):
		if err := db.writeManifest(); err != nil {
			return nil, err
		}
	default:
		return nil, err
	}
	return db, nil
}

// readManifest loads and validates the manifest, reporting whether it was in
// the legacy (unframed) format.
func readManifest(fsys iofault.FS, dir string) (manifest, bool, error) {
	raw, err := iofault.ReadFile(fsys, filepath.Join(dir, manifestName))
	if err != nil {
		return manifest{}, false, err
	}
	var m manifest
	if len(raw) >= len(frameMagic) && string(raw[:len(frameMagic)]) == frameMagic {
		payload, err := decodeFrame(raw, kindManifest)
		if err != nil {
			return manifest{}, false, err
		}
		if err := json.Unmarshal(payload, &m); err != nil {
			return manifest{}, false, corruptf("manifest payload: %v", err)
		}
		return m, false, nil
	}
	// Legacy pre-durability stores persisted bare JSON.
	if err := json.Unmarshal(raw, &m); err != nil {
		return manifest{}, false, corruptf("manifest: %v", err)
	}
	return m, true, nil
}

func (db *DB) writeManifest() error {
	payload, err := json.Marshal(manifest{Version: 1, Sigma: db.opt.Sigma,
		MaxPeriod: db.opt.MaxPeriod, SegmentSize: db.opt.SegmentSize})
	if err != nil {
		return err
	}
	return db.writeFileAtomic(manifestName, kindManifest, payload)
}

// writeFileAtomic commits one framed record under name via the durable
// write protocol: frame → temp file in the same directory → fsync → close →
// rename over the final name → directory fsync. On any failure the temp file
// is removed (best effort) and the final name is untouched.
func (db *DB) writeFileAtomic(name string, kind byte, payload []byte) (err error) {
	frame := encodeFrame(kind, payload)
	tmp, err := db.fs.CreateTemp(db.dir, name+tmpMarker+"*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer func() {
		if err != nil {
			_ = tmp.Close()           // may already be closed; the first error wins
			_ = db.fs.Remove(tmpName) // best-effort cleanup on the error path
		}
	}()
	if _, err = tmp.Write(frame); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = db.fs.Rename(tmpName, filepath.Join(db.dir, name)); err != nil {
		return err
	}
	return db.fs.SyncDir(db.dir)
}

// recoverAndLoad scans the directory, sweeps uncommitted temp files, loads
// (or rebuilds) every summary, and quarantines a torn tail segment.
func (db *DB) recoverAndLoad() error {
	entries, err := db.fs.ReadDir(db.dir)
	if err != nil {
		return err
	}
	var segs, sums []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		if strings.Contains(name, tmpMarker) {
			// An uncommitted temp from an interrupted atomic write: by
			// protocol it was never renamed into place, so it holds no
			// durable data.
			if err := db.fs.Remove(filepath.Join(db.dir, name)); err != nil {
				return err
			}
			obs.Recovery().StrayTempsRemoved.Inc()
			continue
		}
		switch filepath.Ext(name) {
		case ".seg":
			segs = append(segs, name)
		case ".sum":
			sums = append(sums, name)
		}
	}
	sort.Strings(segs)
	// A summary without its segment (e.g. a crash between the two renames of
	// an earlier quarantine) would shadow future seals; quarantine it.
	for _, name := range sums {
		var idx int
		if _, err := fmt.Sscanf(name, "%d.sum", &idx); err == nil && idx < len(segs) {
			continue
		}
		if err := db.quarantineFile(name); err != nil {
			return err
		}
	}
	for i, name := range segs {
		var want int
		if _, err := fmt.Sscanf(name, "%d.seg", &want); err != nil || want != i {
			return fmt.Errorf("store: segment file %q out of sequence (want index %d); run `opstore repair` to truncate to the clean prefix", name, i)
		}
	}
	for i := range segs {
		last := i == len(segs)-1
		sum, err := db.loadOrRebuildSummary(i, last)
		if err != nil {
			if isCorrupt(err) {
				obs.Recovery().ChecksumFailures.Inc()
				if last {
					// Torn tail: the crash hit mid-seal, after the segment
					// file appeared but before its content committed.
					// Quarantine segment and summary; everything before them
					// is intact.
					if qerr := db.quarantinePair(i); qerr != nil {
						return qerr
					}
					break
				}
				return fmt.Errorf("store: segment %d: %v; run `opstore repair` to truncate to the clean prefix", i, err)
			}
			return err
		}
		db.sealed = append(db.sealed, sum)
	}
	return nil
}

// loadOrRebuildSummary returns segment i's summary, rebuilding it from the
// raw segment when the summary file is missing, torn, or corrupt. When
// verifySeg is set (the tail segment), the segment frame is checksummed even
// if the summary loads cleanly.
func (db *DB) loadOrRebuildSummary(i int, verifySeg bool) (*summary, error) {
	sum, serr := db.loadSummary(i)
	if serr == nil {
		if verifySeg {
			if _, err := db.readSegmentData(i); err != nil {
				return nil, err
			}
		}
		return sum, nil
	}
	if !isCorrupt(serr) && !errors.Is(serr, fs.ErrNotExist) {
		return nil, serr
	}
	// Rebuild from the raw segment (its frame is fully verified here).
	data, err := db.readSegmentData(i)
	if err != nil {
		return nil, err
	}
	rebuilt := buildSummary(data, db.opt.Sigma, db.opt.MaxPeriod)
	if err := db.writeSummary(i, rebuilt); err != nil {
		return nil, err
	}
	obs.Recovery().SummariesRebuilt.Inc()
	return rebuilt, nil
}

// quarantinePair moves segment i's files into the quarantine subdirectory.
func (db *DB) quarantinePair(i int) error {
	if err := db.quarantineFile(segName(i)); err != nil {
		return err
	}
	if _, err := db.fs.Stat(db.sumPath(i)); err == nil {
		return db.quarantineFile(sumName(i))
	}
	return nil
}

// quarantineFile moves one file under quarantine/, never overwriting an
// earlier quarantined file of the same name.
func (db *DB) quarantineFile(name string) error {
	qdir := filepath.Join(db.dir, quarantineDir)
	if err := db.fs.MkdirAll(qdir, 0o755); err != nil {
		return err
	}
	dst := filepath.Join(qdir, name)
	for n := 1; ; n++ {
		if _, err := db.fs.Stat(dst); errors.Is(err, fs.ErrNotExist) {
			break
		}
		dst = filepath.Join(qdir, fmt.Sprintf("%s.%d", name, n))
	}
	//opvet:ignore commitpath moves an already-committed file; its content was fsynced when written, and SyncDir follows
	if err := db.fs.Rename(filepath.Join(db.dir, name), dst); err != nil {
		return err
	}
	if err := db.fs.SyncDir(db.dir); err != nil {
		return err
	}
	obs.Recovery().FilesQuarantined.Inc()
	return nil
}

func segName(i int) string { return fmt.Sprintf("%08d.seg", i) }
func sumName(i int) string { return fmt.Sprintf("%08d.sum", i) }

func (db *DB) segPath(i int) string { return filepath.Join(db.dir, segName(i)) }
func (db *DB) sumPath(i int) string { return filepath.Join(db.dir, sumName(i)) }

// summaryRecord is the on-disk form of a summary (the frame payload, gob
// encoded).
type summaryRecord struct {
	Version   int
	Sigma     int
	MaxPeriod int
	Length    int
	Head      []uint16
	Tail      []uint16
	F2        [][][]int32
}

// validate checks the record's internal consistency, so that even a payload
// that passed the CRC (a logic bug, not bit rot) can never produce an
// out-of-bounds panic or silently wrong counts downstream.
func (rec *summaryRecord) validate() error {
	if rec.Version != 1 {
		return corruptf("summary record: unsupported version %d", rec.Version)
	}
	if rec.Sigma < 1 || rec.MaxPeriod < 1 || rec.Length < 1 {
		return corruptf("summary record: non-positive shape σ=%d maxPeriod=%d length=%d",
			rec.Sigma, rec.MaxPeriod, rec.Length)
	}
	bound := rec.MaxPeriod
	if bound > rec.Length {
		bound = rec.Length
	}
	if len(rec.Head) != bound || len(rec.Tail) != bound {
		return corruptf("summary record: head/tail lengths %d/%d, want %d",
			len(rec.Head), len(rec.Tail), bound)
	}
	for _, k := range rec.Head {
		if int(k) >= rec.Sigma {
			return corruptf("summary record: head symbol %d outside σ=%d", k, rec.Sigma)
		}
	}
	for _, k := range rec.Tail {
		if int(k) >= rec.Sigma {
			return corruptf("summary record: tail symbol %d outside σ=%d", k, rec.Sigma)
		}
	}
	if len(rec.F2) != rec.Sigma {
		return corruptf("summary record: %d symbol planes, want σ=%d", len(rec.F2), rec.Sigma)
	}
	for k := range rec.F2 {
		if len(rec.F2[k]) != rec.MaxPeriod+1 {
			return corruptf("summary record: symbol %d has %d period rows, want %d",
				k, len(rec.F2[k]), rec.MaxPeriod+1)
		}
		for p, counts := range rec.F2[k] {
			if counts == nil {
				continue
			}
			if p == 0 || len(counts) != p {
				return corruptf("summary record: symbol %d period %d has %d phases", k, p, len(counts))
			}
			for _, c := range counts {
				if c < 0 {
					return corruptf("summary record: negative count at symbol %d period %d", k, p)
				}
			}
		}
	}
	return nil
}

func (db *DB) writeSummary(i int, s *summary) error {
	rec := summaryRecord{Version: 1, Sigma: s.sigma, MaxPeriod: s.maxPeriod,
		Length: s.length, Head: s.head, Tail: s.tail, F2: s.f2}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(rec); err != nil {
		return err
	}
	return db.writeFileAtomic(sumName(i), kindSummary, buf.Bytes())
}

// decodeSummaryPayload decodes and validates one summary frame payload.
func decodeSummaryPayload(payload []byte) (*summaryRecord, error) {
	var rec summaryRecord
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&rec); err != nil {
		return nil, corruptf("summary payload: %v", err)
	}
	if err := rec.validate(); err != nil {
		return nil, err
	}
	return &rec, nil
}

func (db *DB) loadSummary(i int) (*summary, error) {
	raw, err := iofault.ReadFile(db.fs, db.sumPath(i))
	if err != nil {
		return nil, err
	}
	payload, err := decodeFrame(raw, kindSummary)
	if err != nil {
		return nil, err
	}
	rec, err := decodeSummaryPayload(payload)
	if err != nil {
		return nil, err
	}
	if rec.Sigma != db.opt.Sigma || rec.MaxPeriod != db.opt.MaxPeriod {
		return nil, corruptf("summary %d: shape mismatch (σ=%d maxPeriod=%d, store has σ=%d maxPeriod=%d)",
			i, rec.Sigma, rec.MaxPeriod, db.opt.Sigma, db.opt.MaxPeriod)
	}
	return &summary{sigma: rec.Sigma, maxPeriod: rec.MaxPeriod, length: rec.Length,
		head: rec.Head, tail: rec.Tail, f2: rec.F2}, nil
}

// decodeSegmentPayload decodes one segment frame payload into its series.
func decodeSegmentPayload(payload []byte) (*series.Series, error) {
	s, err := series.ReadBinary(bytes.NewReader(payload))
	if err != nil {
		return nil, corruptf("segment payload: %v", err)
	}
	return s, nil
}

// readSegmentData reads segment i's symbols, fully verifying its frame.
func (db *DB) readSegmentData(i int) ([]uint16, error) {
	raw, err := iofault.ReadFile(db.fs, db.segPath(i))
	if err != nil {
		return nil, err
	}
	payload, err := decodeFrame(raw, kindSegment)
	if err != nil {
		return nil, err
	}
	s, err := decodeSegmentPayload(payload)
	if err != nil {
		return nil, err
	}
	if s.Alphabet().Size() != db.opt.Sigma {
		return nil, corruptf("segment %d: alphabet size %d, store has σ=%d", i, s.Alphabet().Size(), db.opt.Sigma)
	}
	return s.Indices(), nil
}

// Append ingests symbol indices, sealing segments as they fill. On error,
// the symbol that triggered the failed seal (and everything after it in the
// same call) is not ingested, so the call is safely retryable after a
// transient I/O error; symbols before it in the same call remain staged.
func (db *DB) Append(symbols ...int) error {
	if db.closed {
		return fmt.Errorf("store: closed")
	}
	for _, k := range symbols {
		if k < 0 || k >= db.opt.Sigma {
			return fmt.Errorf("store: symbol index %d out of range [0,%d)", k, db.opt.Sigma)
		}
		db.active = append(db.active, uint16(k))
		if len(db.active) == db.opt.SegmentSize {
			if err := db.seal(); err != nil {
				db.active = db.active[:len(db.active)-1]
				return err
			}
		}
	}
	return nil
}

// seal persists the active segment and its summary, each as an atomic
// framed commit. A crash between the two commits leaves a segment without
// its summary; Open rebuilds the summary from the segment.
func (db *DB) seal() error {
	idx := len(db.sealed)
	var buf bytes.Buffer
	s := series.FromIndices(db.alpha, db.active)
	if err := series.WriteBinary(&buf, s); err != nil {
		return err
	}
	if err := db.writeFileAtomic(segName(idx), kindSegment, buf.Bytes()); err != nil {
		return err
	}
	sum := buildSummary(db.active, db.opt.Sigma, db.opt.MaxPeriod)
	if err := db.writeSummary(idx, sum); err != nil {
		return err
	}
	db.sealed = append(db.sealed, sum)
	db.active = nil
	return nil
}

// Flush seals the active segment even if it is not full (no-op when empty).
func (db *DB) Flush() error {
	if db.closed {
		return fmt.Errorf("store: closed")
	}
	if len(db.active) == 0 {
		return nil
	}
	return db.seal()
}

// Close flushes and marks the store closed.
func (db *DB) Close() error {
	if db.closed {
		return nil
	}
	if err := db.Flush(); err != nil {
		return err
	}
	db.closed = true
	return nil
}

// Len returns the total number of stored symbols, active segment included.
func (db *DB) Len() int {
	total := len(db.active)
	for _, s := range db.sealed {
		total += s.length
	}
	return total
}

// Segments returns the number of sealed segments.
func (db *DB) Segments() int { return len(db.sealed) }

// ReadRange loads the raw symbols of segments [fromSeg, toSeg) (plus the
// active segment when toSeg == Segments()) back into one series — the slow
// path for queries the summaries cannot answer, such as pattern mining.
// Every segment frame read here is checksum-verified.
func (db *DB) ReadRange(fromSeg, toSeg int) (*series.Series, error) {
	if fromSeg < 0 || toSeg < fromSeg || toSeg > len(db.sealed) {
		return nil, fmt.Errorf("store: segment range [%d,%d) outside [0,%d]", fromSeg, toSeg, len(db.sealed))
	}
	var data []uint16
	for i := fromSeg; i < toSeg; i++ {
		seg, err := db.readSegmentData(i)
		if err != nil {
			return nil, fmt.Errorf("store: segment %d unreadable: %v", i, err)
		}
		data = append(data, seg...)
	}
	if toSeg == len(db.sealed) {
		data = append(data, db.active...)
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("store: empty range")
	}
	return series.FromIndices(db.alpha, data), nil
}

// Mine runs the full pattern miner over a segment range, reading the raw
// symbols back from disk; use PeriodicitiesRange when only periodicities are
// needed (summaries suffice there).
func (db *DB) Mine(fromSeg, toSeg int, opt core.Options) (*core.Result, error) {
	s, err := db.ReadRange(fromSeg, toSeg)
	if err != nil {
		return nil, err
	}
	if opt.MaxPeriod == 0 && db.opt.MaxPeriod < s.Len()/2 {
		opt.MaxPeriod = db.opt.MaxPeriod
	}
	return core.MineContext(context.Background(), s, opt)
}

// Periodicities answers over the whole history (sealed + active) at
// threshold psi, from summaries alone.
func (db *DB) Periodicities(psi float64) ([]core.SymbolPeriodicity, error) {
	return db.PeriodicitiesRange(0, len(db.sealed), psi)
}

// PeriodicitiesRange answers over segments [fromSeg, toSeg) — with toSeg ==
// Segments() including the active segment — by merging the stored summaries
// left to right. Positions are phases relative to the range start.
func (db *DB) PeriodicitiesRange(fromSeg, toSeg int, psi float64) ([]core.SymbolPeriodicity, error) {
	if psi <= 0 || psi > 1 {
		return nil, fmt.Errorf("store: threshold ψ=%v outside (0,1]", psi)
	}
	if fromSeg < 0 || toSeg < fromSeg || toSeg > len(db.sealed) {
		return nil, fmt.Errorf("store: segment range [%d,%d) outside [0,%d]", fromSeg, toSeg, len(db.sealed))
	}
	var acc *summary
	for i := fromSeg; i < toSeg; i++ {
		if acc == nil {
			acc = db.sealed[i].clone()
			continue
		}
		if err := acc.merge(db.sealed[i]); err != nil {
			return nil, err
		}
	}
	if toSeg == len(db.sealed) && len(db.active) > 0 {
		activeSum := buildSummary(db.active, db.opt.Sigma, db.opt.MaxPeriod)
		if acc == nil {
			acc = activeSum
		} else if err := acc.merge(activeSum); err != nil {
			return nil, err
		}
	}
	if acc == nil {
		return nil, nil
	}
	return acc.periodicities(psi), nil
}

// periodicities extracts the qualifying symbol periodicities of a summary.
func (s *summary) periodicities(psi float64) []core.SymbolPeriodicity {
	var out []core.SymbolPeriodicity
	n := s.length
	for p := 1; p <= s.maxPeriod && p < n; p++ {
		for l := 0; l < p; l++ {
			pairs := (n-l+p-1)/p - 1
			if pairs < 1 {
				continue
			}
			for k := 0; k < s.sigma; k++ {
				if s.f2[k][p] == nil {
					continue
				}
				f2 := int(s.f2[k][p][l])
				if f2 == 0 {
					continue
				}
				conf := float64(f2) / float64(pairs)
				if conf >= psi {
					out = append(out, core.SymbolPeriodicity{
						Symbol: k, Period: p, Position: l,
						F2: f2, Pairs: pairs, Confidence: conf,
					})
				}
			}
		}
	}
	return out
}
