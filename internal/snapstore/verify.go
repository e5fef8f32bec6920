package snapstore

import (
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"alicoco/internal/faultfs"
)

// WriteFileAtomic writes dir/name with full crash-safety discipline: emit
// into a temp file in the same directory, fsync the file, close (checking
// the error — a buffered NFS/overlay close can be the first place a write
// error surfaces), rename over the target, then fsync the parent directory
// so the rename itself survives a power loss. Every step goes through
// faultfs, so crash-matrix tests can kill the sequence at any operation.
// emit's writes go straight to the file, unbuffered: an emitter writes in
// a few large pieces (a JSON encoder writes its document in one, and
// core's SaveSum buffers itself in a buffer sized to its file), so no file
// pays for a buffer larger than itself.
func WriteFileAtomic(dir, name string, emit func(w io.Writer) error) error {
	if err := writeGenFile(dir, name, emit); err != nil {
		return err
	}
	if err := faultfs.SyncDir(dir); err != nil {
		return fmt.Errorf("snapstore: write %s: sync dir: %w", name, err)
	}
	return nil
}

// writeGenFile is WriteFileAtomic without the directory fsync, for the
// files of a generation being written: Tx.Commit fsyncs the transaction's
// directory once, before its rename lets anything name the generation, and
// that makes every rename inside it durable.
func writeGenFile(dir, name string, emit func(w io.Writer) error) error {
	f, err := faultfs.CreateTemp(dir, name+".tmp-*")
	if err != nil {
		return fmt.Errorf("snapstore: write %s: %w", name, err)
	}
	tmp := f.Name()
	defer faultfs.Remove(tmp) // no-op after the rename succeeds

	if err := emit(f); err != nil {
		f.Close()
		return fmt.Errorf("snapstore: write %s: %w", name, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("snapstore: write %s: sync: %w", name, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("snapstore: write %s: close: %w", name, err)
	}
	if err := faultfs.Rename(tmp, filepath.Join(dir, name)); err != nil {
		return fmt.Errorf("snapstore: write %s: %w", name, err)
	}
	return nil
}

// FileCheck names one file of a generation and the checksum it must hash
// to. HeaderLen/TrailerLen carve off framing bytes (magic + version,
// embedded CRC trailer) that are not part of the checksummed body; both
// zero means the whole file is hashed.
type FileCheck struct {
	// Name is the file's name relative to the generation directory.
	Name string
	// HeaderLen bytes at the start are excluded from the hash.
	HeaderLen int
	// TrailerLen bytes at the end are excluded from the hash.
	TrailerLen int
	// Want is the expected CRC-32 (IEEE) of the body.
	Want uint32
}

// FileReport is the verification outcome for one file.
type FileReport struct {
	Name string
	// Got is the body checksum actually read; zero when Err is set.
	Got  uint32
	Want uint32
	// Err is non-nil when the file could not be read or framed (missing,
	// truncated below header+trailer, I/O error).
	Err error
}

// OK reports whether the file verified clean.
func (r FileReport) OK() bool { return r.Err == nil && r.Got == r.Want }

// VerifyFiles re-hashes every named file in dir against its expected
// checksum and returns one report per check, in order. It never stops
// early: an operator fixing a corrupt generation wants the full damage
// report, not the first casualty. Reads go through faultfs so corruption
// and I/O faults are injectable.
func VerifyFiles(dir string, checks []FileCheck) []FileReport {
	reports := make([]FileReport, len(checks))
	for i, c := range checks {
		got, err := fileCRC(filepath.Join(dir, c.Name), c.HeaderLen, c.TrailerLen)
		reports[i] = FileReport{Name: c.Name, Got: got, Want: c.Want, Err: err}
		if err != nil {
			reports[i].Got = 0
		}
	}
	return reports
}

// fileCRC hashes a file's body — everything between headerLen bytes of
// leading framing and trailerLen bytes of trailing framing — with
// CRC-32 (IEEE), streaming through one buffer of at most 64 KiB, sized to
// a smaller file, so shard files never load whole into memory. The hash
// lags the read by trailerLen bytes, which wait at the front of the
// buffer, so the trailer never enters it.
func fileCRC(path string, headerLen, trailerLen int) (uint32, error) {
	f, err := faultfs.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	size := 1 << 16
	if fi, err := os.Stat(path); err == nil && fi.Size() < int64(size) {
		// One byte past the file, so one read reaches its end.
		size = max(int(fi.Size())+1, headerLen, trailerLen+1)
	}
	buf := make([]byte, size)
	if _, err := io.ReadFull(f, buf[:headerLen]); err != nil {
		return 0, fmt.Errorf("header: %w", err)
	}
	h := crc32.NewIEEE()
	held := 0 // bytes read but not hashed yet, at most trailerLen
	for {
		n, err := f.Read(buf[held:])
		held += n
		if over := held - trailerLen; over > 0 {
			h.Write(buf[:over])
			held = copy(buf, buf[over:held])
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
	}
	if held < trailerLen {
		return 0, fmt.Errorf("file shorter than its %d-byte trailer", trailerLen)
	}
	return h.Sum32(), nil
}

// ScrubReport summarizes one integrity pass over a served generation.
type ScrubReport struct {
	// Gen is the generation that was scrubbed.
	Gen uint64 `json:"gen"`
	// Checked is how many files were re-hashed.
	Checked int `json:"checked"`
	// Mismatches lists files whose body hash disagreed with the manifest
	// (or could not be read at all).
	Mismatches []string `json:"mismatches,omitempty"`
	// Quarantined lists the paths poisoned files were renamed aside to.
	Quarantined []string `json:"quarantined,omitempty"`
	// Repaired lists files re-materialized from a clean source.
	Repaired []string `json:"repaired,omitempty"`
	// Unrepaired lists files that were quarantined but had no clean source
	// to repair from — the generation is degraded and a rollback or
	// re-publish is needed.
	Unrepaired []string `json:"unrepaired,omitempty"`
}

// Clean reports whether the pass found nothing wrong.
func (r ScrubReport) Clean() bool { return len(r.Mismatches) == 0 }
