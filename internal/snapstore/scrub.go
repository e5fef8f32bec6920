package snapstore

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"path/filepath"

	"alicoco/internal/core"
	"alicoco/internal/faultfs"
)

// Integrity scrubbing: re-hash a generation's files against its own
// on-disk manifest (anchored by the catalog entry's manifest checksum —
// catalog -> manifest -> file is the whole chain of trust), quarantine
// anything that disagrees, and repair it from the newest clean source
// available. Repair is per-file: a single bit-flipped shard is
// re-materialized alone, it never forces republishing the generation or
// invalidating warm caches — serving reads the in-memory shards and is not
// interrupted.

// File framing the scrubber must skip when re-hashing bodies: the frozen
// shard format (core.FrozenHeaderLen, core.FrozenTrailerLen) and the
// sharded meta file both carry magic+version headers and a CRC-32 trailer
// that are not part of the checksummed body.
const (
	metaHeaderLen  = 5 // "ACSM" magic + version byte
	metaTrailerLen = 4 // body CRC-32
)

// FileChecks returns the verification checks covering every file the
// manifest names — each shard body plus the meta body — against the
// checksums the manifest committed.
func (m *ShardManifest) FileChecks() []FileCheck {
	checks := make([]FileCheck, 0, len(m.Shards)+1)
	for i := range m.Shards {
		e := &m.Shards[i]
		checks = append(checks, FileCheck{
			Name: e.File, HeaderLen: core.FrozenHeaderLen, TrailerLen: core.FrozenTrailerLen, Want: e.Checksum,
		})
	}
	checks = append(checks, FileCheck{
		Name: m.MetaFile, HeaderLen: metaHeaderLen, TrailerLen: metaTrailerLen, Want: m.MetaChecksum,
	})
	return checks
}

// ScrubGen re-hashes every file of generation g of the store at root
// against its manifest, quarantines mismatches (rename aside, never
// delete — the poisoned bytes are evidence), and repairs each quarantined
// file from the newest source whose checksum matches: another catalog
// generation first, then served or meta, the shards and metadata serving
// holds (a shard is re-serialized, the metadata rewritten from its
// encoding). The catalog is only listed, never swept. The error return is
// for scrub-infrastructure failures (unreadable manifest, failed
// quarantine rename); integrity findings are the report's.
func ScrubGen(root string, g Gen, served []*core.FrozenNet, meta *ServingMeta) (*ScrubReport, error) {
	dir := filepath.Join(root, g.Dir)
	report := &ScrubReport{Gen: g.ID}

	// The manifest is the root of trust for everything below it: if its
	// bytes do not match the catalog, its per-file checksums prove nothing.
	// There is no repair source for it (each generation's manifest is
	// unique), so a mismatch degrades the generation and the caller must
	// roll back or republish.
	rep := VerifyFiles(dir, []FileCheck{{Name: ShardManifestName, Want: g.ManifestChecksum}})
	report.Checked++
	if !rep[0].OK() {
		report.Mismatches = append(report.Mismatches, ShardManifestName)
		report.Unrepaired = append(report.Unrepaired, ShardManifestName)
		return report, nil
	}

	man, err := ReadManifest(dir)
	if err != nil {
		return report, fmt.Errorf("snapstore: scrub: %w", err)
	}
	checks := man.FileChecks()
	reports := VerifyFiles(dir, checks)
	report.Checked += len(checks)
	for i, rep := range reports {
		if rep.OK() {
			continue
		}
		report.Mismatches = append(report.Mismatches, rep.Name)
		path := filepath.Join(dir, rep.Name)
		if rep.Err == nil || !errors.Is(rep.Err, fs.ErrNotExist) {
			q := QuarantinePath(path, g.ID)
			if err := faultfs.Rename(path, q); err != nil {
				return report, fmt.Errorf("snapstore: scrub: quarantine %s: %w", rep.Name, err)
			}
			report.Quarantined = append(report.Quarantined, q)
		}
		if repairFile(root, dir, checks[i], rep.Name == man.MetaFile, served, meta) {
			report.Repaired = append(report.Repaired, rep.Name)
		} else {
			report.Unrepaired = append(report.Unrepaired, rep.Name)
		}
	}
	return report, nil
}

// repairFile re-materializes one missing/quarantined file of the
// generation in dir — the meta file when isMeta, else a shard — and
// reports success only after the fresh copy verifies against its check.
func repairFile(root, dir string, check FileCheck, isMeta bool, served []*core.FrozenNet, meta *ServingMeta) bool {
	if repairFromCatalog(dir, check, root) {
		return true
	}
	if !isMeta {
		return repairFromMemory(dir, check, served)
	}
	// The meta encoding is canonical: one that hashes to the manifest's
	// checksum is the body the save wrote.
	body, err := meta.encode()
	return err == nil && crc32.ChecksumIEEE(body) == check.Want && writeMeta(dir, check.Name, body) == nil
}

// repairFromCatalog copies the file from the newest other committed
// generation of the store at root holding content with the matching
// checksum.
func repairFromCatalog(dir string, check FileCheck, root string) bool {
	gens, err := ListGenerations(root)
	if err != nil {
		return false
	}
	for i := len(gens) - 1; i >= 0; i-- {
		srcDir := filepath.Join(root, gens[i].Dir)
		if srcDir == dir {
			continue
		}
		srcMan, err := ReadManifest(srcDir)
		if err != nil {
			continue
		}
		srcName := ""
		if check.Name == srcMan.MetaFile && srcMan.MetaChecksum == check.Want {
			srcName = srcMan.MetaFile
		}
		for j := range srcMan.Shards {
			if srcMan.Shards[j].Checksum == check.Want {
				srcName = srcMan.Shards[j].File
				break
			}
		}
		if srcName == "" {
			continue
		}
		if copyVerified(srcDir, srcName, dir, check) {
			return true
		}
	}
	return false
}

// copyVerified atomically copies src into dir/check.Name and re-hashes the
// result; a copy that does not verify (the source was rotten too) is a
// failure, not a repair.
func copyVerified(srcDir, srcName, dir string, check FileCheck) bool {
	err := WriteFileAtomic(dir, check.Name, func(w io.Writer) error {
		src, err := faultfs.Open(filepath.Join(srcDir, srcName))
		if err != nil {
			return err
		}
		defer src.Close()
		_, err = io.Copy(w, src)
		return err
	})
	if err != nil {
		return false
	}
	return VerifyFiles(dir, []FileCheck{check})[0].OK()
}

// repairFromMemory re-serializes the served in-memory shard whose frozen
// checksum matches the manifest entry — the disk copy rotted but the
// memory copy (which loaded and verified once) is still good.
func repairFromMemory(dir string, check FileCheck, shards []*core.FrozenNet) bool {
	for _, sh := range shards {
		if sh == nil || sh.Checksum() != check.Want {
			continue
		}
		var sum uint32
		err := WriteFileAtomic(dir, check.Name, func(w io.Writer) error {
			var err error
			sum, err = sh.SaveSum(w)
			return err
		})
		if err == nil && sum == check.Want {
			return true
		}
	}
	return false
}
