package store

// Corruption detection and the recovery state machine: every single-bit
// flip and every truncation of a persisted file must surface as a decode
// error (never as silently wrong data), Open must quarantine a torn tail
// and refuse interior damage, and Repair must truncate to the longest clean
// prefix and reconstruct what it can.

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"periodica/internal/iofault"
	"periodica/internal/obs"
)

// buildSmallStore seals exactly segments full segments and returns the dir.
func buildSmallStore(t *testing.T, segments int) string {
	t.Helper()
	dir := t.TempDir()
	db, err := Open(dir, Options{Sigma: 3, MaxPeriod: 4, SegmentSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16*segments; i++ {
		if err := db.Append(i % 3); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// decodeStoreFile routes one file through the same decode path the store
// uses, returning its error.
func decodeStoreFile(dir, name string) error {
	switch {
	case name == manifestName:
		_, _, err := readManifest(iofault.OS(), dir)
		return err
	case filepath.Ext(name) == ".seg":
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		payload, err := decodeFrame(raw, kindSegment)
		if err != nil {
			return err
		}
		_, err = decodeSegmentPayload(payload)
		return err
	case filepath.Ext(name) == ".sum":
		_, err := readSummaryRecord(iofault.OS(), filepath.Join(dir, name))
		return err
	}
	return nil
}

func TestBitFlipSweepDetected(t *testing.T) {
	dir := buildSmallStore(t, 1)
	for _, name := range []string{manifestName, segName(0), sumName(0)} {
		path := filepath.Join(dir, name)
		pristine, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if decodeStoreFile(dir, name) != nil {
			t.Fatalf("%s: pristine file does not decode", name)
		}
		for pos := range pristine {
			for bit := 0; bit < 8; bit++ {
				mutated := append([]byte(nil), pristine...)
				mutated[pos] ^= 1 << bit
				if err := os.WriteFile(path, mutated, 0o644); err != nil {
					t.Fatal(err)
				}
				if err := decodeStoreFile(dir, name); err == nil {
					t.Fatalf("%s: bit flip at byte %d bit %d decoded as valid", name, pos, bit)
				}
			}
		}
		if err := os.WriteFile(path, pristine, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// The restored store is intact.
	rep, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("restored store not clean: %v", rep.Problems)
	}
}

func TestTruncationSweepDetected(t *testing.T) {
	dir := buildSmallStore(t, 1)
	for _, name := range []string{manifestName, segName(0), sumName(0)} {
		path := filepath.Join(dir, name)
		pristine, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(pristine); cut++ {
			if err := os.WriteFile(path, pristine[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			if err := decodeStoreFile(dir, name); err == nil {
				t.Fatalf("%s: truncation to %d/%d bytes decoded as valid", name, cut, len(pristine))
			}
		}
		if err := os.WriteFile(path, pristine, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestOpenQuarantinesTornTail(t *testing.T) {
	dir := buildSmallStore(t, 3)
	// Tear the last segment (simulating a crash mid-commit on a filesystem
	// that tore the write) and damage its summary too.
	tearFile(t, filepath.Join(dir, segName(2)))
	tearFile(t, filepath.Join(dir, sumName(2)))
	before := obs.Recovery().FilesQuarantined.Value()

	db, err := OpenExisting(dir)
	if err != nil {
		t.Fatalf("open with torn tail: %v", err)
	}
	if db.Segments() != 2 {
		t.Fatalf("segments = %d, want 2 after tail quarantine", db.Segments())
	}
	if got := obs.Recovery().FilesQuarantined.Value(); got != before+2 {
		t.Fatalf("quarantine counter rose by %d, want 2", got-before)
	}
	entries, err := os.ReadDir(filepath.Join(dir, quarantineDir))
	if err != nil || len(entries) != 2 {
		t.Fatalf("quarantine dir: %v entries, err %v", len(entries), err)
	}
	rep, err := db.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("store not clean after tail quarantine: %v", rep.Problems)
	}
	// The freed tail index is reusable.
	for i := 0; i < 16; i++ {
		if err := db.Append(i % 3); err != nil {
			t.Fatal(err)
		}
	}
	if db.Segments() != 3 {
		t.Fatalf("segments = %d after refill, want 3", db.Segments())
	}
}

// TestReadRangeDetectsInteriorCorruption covers the lazy-verification
// design: Open trusts an interior segment whose summary is intact (only the
// tail gets a full CRC pass), but any actual read of the damaged segment
// must fail its checksum rather than return flipped data.
func TestReadRangeDetectsInteriorCorruption(t *testing.T) {
	dir := buildSmallStore(t, 3)
	flipByte(t, filepath.Join(dir, segName(1)), 20)

	db, err := OpenExisting(dir)
	if err != nil {
		t.Fatalf("open with intact summaries: %v", err)
	}
	if _, err := db.ReadRange(1, 2); err == nil {
		t.Fatal("read of bit-flipped segment returned data")
	}
	rep, err := db.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("verify missed the interior bit flip")
	}
}

func TestOpenRefusesInteriorCorruptionRepairTruncates(t *testing.T) {
	dir := buildSmallStore(t, 3)
	// Damage segment 1 and its summary: Open must rebuild the summary from
	// the segment, hit the checksum failure, and — since an interior
	// segment cannot be quarantined without losing later data silently —
	// refuse to open.
	flipByte(t, filepath.Join(dir, segName(1)), 20)
	flipByte(t, filepath.Join(dir, sumName(1)), 25)

	_, err := OpenExisting(dir)
	if err == nil {
		t.Fatal("open with interior corruption: want error")
	}
	if !strings.Contains(err.Error(), "repair") {
		t.Fatalf("error %q does not point at repair", err)
	}

	rep, err := Repair(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Segments != 1 {
		t.Fatalf("repair kept %d segments, want 1 (clean prefix)", rep.Segments)
	}
	if len(rep.Actions) == 0 {
		t.Fatal("repair reported no actions")
	}
	vrep, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !vrep.Clean() {
		t.Fatalf("store not clean after repair: %v", vrep.Problems)
	}
	db, err := OpenExisting(dir)
	if err != nil {
		t.Fatalf("open after repair: %v", err)
	}
	if db.Segments() != 1 {
		t.Fatalf("segments = %d after repair, want 1", db.Segments())
	}
	s, err := db.ReadRange(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.Len(); i++ {
		if s.At(i) != i%3 {
			t.Fatalf("surviving data wrong at %d", i)
		}
	}
}

func TestRepairRebuildsSummariesAndSweepsTemps(t *testing.T) {
	dir := buildSmallStore(t, 2)
	if err := os.Remove(filepath.Join(dir, sumName(0))); err != nil {
		t.Fatal(err)
	}
	flipByte(t, filepath.Join(dir, sumName(1)), 25)
	stray := filepath.Join(dir, segName(9)+tmpMarker+"zzz")
	if err := os.WriteFile(stray, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := Repair(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Segments != 2 {
		t.Fatalf("repair kept %d segments, want 2", rep.Segments)
	}
	if _, err := os.Stat(stray); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("stray temp survived repair")
	}
	vrep, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !vrep.Clean() {
		t.Fatalf("not clean after repair: %v", vrep.Problems)
	}
}

func TestRepairReconstructsManifest(t *testing.T) {
	dir := buildSmallStore(t, 2)
	db, err := OpenExisting(dir)
	if err != nil {
		t.Fatal(err)
	}
	want, err := periodicities(db, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
		t.Fatal(err)
	}

	rep, err := Repair(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Actions) == 0 {
		t.Fatal("repair reported no actions")
	}
	db2, err := OpenExisting(dir)
	if err != nil {
		t.Fatalf("open after manifest reconstruction: %v", err)
	}
	if db2.Sigma() != 3 || db2.MaxPeriod() != 4 {
		t.Fatalf("reconstructed shape σ=%d maxPeriod=%d", db2.Sigma(), db2.MaxPeriod())
	}
	got, err := periodicities(db2, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sortPers(got), sortPers(want)) {
		t.Fatal("answers changed across manifest reconstruction")
	}
}

func TestOpenUpgradesLegacyManifest(t *testing.T) {
	dir := buildSmallStore(t, 1)
	// Replace the framed manifest with the pre-durability bare JSON form.
	legacy := []byte(`{"version":1,"sigma":3,"maxPeriod":4,"segmentSize":16}`)
	if err := os.WriteFile(filepath.Join(dir, manifestName), legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("verify did not flag the legacy manifest")
	}

	db, err := OpenExisting(dir)
	if err != nil {
		t.Fatalf("open legacy store: %v", err)
	}
	if db.Sigma() != 3 {
		t.Fatalf("sigma = %d", db.Sigma())
	}
	// Open rewrote the manifest framed; verify is now clean.
	rep, err = Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("legacy manifest not upgraded: %v", rep.Problems)
	}
}

func TestVerifyFlagsCrossKindSwap(t *testing.T) {
	dir := buildSmallStore(t, 1)
	// A summary copied over a segment passes any size check but must fail
	// on the frame's kind byte.
	sum, err := os.ReadFile(filepath.Join(dir, sumName(0)))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segName(0)), sum, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := decodeStoreFile(dir, segName(0)); err == nil {
		t.Fatal("summary bytes decoded as a segment")
	}
	rep, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("verify missed the kind swap")
	}
}

func tearFile(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
}

func flipByte(t *testing.T, path string, pos int) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if pos >= len(raw) {
		pos = len(raw) - 1
	}
	raw[pos] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}
