package pipeline

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"path/filepath"

	"alicoco/internal/core"
	"alicoco/internal/faultfs"
	"alicoco/internal/snapstore"
)

// Integrity scrubbing: re-hash a generation's files against its own
// on-disk manifest (anchored, when the generation is cataloged, by the
// catalog entry's manifest checksum — catalog -> manifest -> file is the
// whole chain of trust), quarantine anything that disagrees, and repair it
// from the newest clean source available. Repair is per-file: a single
// bit-flipped shard is re-materialized alone, it never forces republishing
// the generation or invalidating warm caches — serving reads the in-memory
// shards and is not interrupted.

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
func (m *ShardManifest) FileChecks() []snapstore.FileCheck {
	checks := make([]snapstore.FileCheck, 0, len(m.Shards)+1)
	for i := range m.Shards {
		e := &m.Shards[i]
		checks = append(checks, snapstore.FileCheck{
			Name: e.File, HeaderLen: core.FrozenHeaderLen, TrailerLen: core.FrozenTrailerLen, Want: e.Checksum,
		})
	}
	checks = append(checks, snapstore.FileCheck{
		Name: m.MetaFile, HeaderLen: metaHeaderLen, TrailerLen: metaTrailerLen, Want: m.MetaChecksum,
	})
	return checks
}

// ScrubOptions configures one scrub pass.
type ScrubOptions struct {
	// Store, when non-empty, is the root of the snapshot store whose
	// catalog repair draws on: other committed generations holding a file
	// with the matching checksum are the first repair source. The catalog
	// is only listed, never swept.
	Store string

	// InMem, when non-nil, are the currently served frozen shards —
	// the fallback repair source: a shard whose in-memory checksum matches
	// the manifest entry is re-serialized to disk.
	InMem []*core.FrozenNet

	// Meta, when non-nil, is the metadata being served — the fallback
	// repair source of the meta file, rewritten from its encoding when
	// that encoding hashes to the manifest's MetaChecksum.
	Meta *ServingMeta

	// Gen is the generation being scrubbed; it stamps the report and
	// seeds quarantine suffixes. Zero when scrubbing without a catalog.
	Gen uint64

	// ManifestChecksum, when non-zero, is the catalog entry's checksum the
	// on-disk manifest itself must hash to before its per-file checksums
	// are trusted.
	ManifestChecksum uint32
}

// ScrubShardDir re-hashes every file of the sharded snapshot in dir
// against its manifest, quarantines mismatches (rename aside, never
// delete — the poisoned bytes are evidence), and repairs each quarantined
// file from the newest source whose checksum matches: another catalog
// generation first, then the served in-memory shard or metadata. The
// error return is for scrub-infrastructure failures (unreadable manifest,
// failed quarantine rename); integrity findings are the report's.
func ScrubShardDir(dir string, opts ScrubOptions) (*snapstore.ScrubReport, error) {
	report := &snapstore.ScrubReport{Gen: opts.Gen}

	// The manifest is the root of trust for everything below it: if its
	// bytes do not match the catalog, its per-file checksums prove nothing.
	// There is no repair source for it (each generation's manifest is
	// unique), so a mismatch degrades the generation and the caller must
	// roll back or republish.
	if opts.ManifestChecksum != 0 {
		rep := snapstore.VerifyFiles(dir, []snapstore.FileCheck{{Name: ShardManifestName, Want: opts.ManifestChecksum}})
		report.Checked++
		if !rep[0].OK() {
			report.Mismatches = append(report.Mismatches, ShardManifestName)
			report.Unrepaired = append(report.Unrepaired, ShardManifestName)
			return report, nil
		}
	}

	man, err := ReadManifest(dir)
	if err != nil {
		return report, fmt.Errorf("pipeline: scrub: %w", err)
	}
	checks := man.FileChecks()
	reports := snapstore.VerifyFiles(dir, checks)
	report.Checked += len(checks)
	for i, rep := range reports {
		if rep.OK() {
			continue
		}
		report.Mismatches = append(report.Mismatches, rep.Name)
		path := filepath.Join(dir, rep.Name)
		if rep.Err == nil || !errors.Is(rep.Err, fs.ErrNotExist) {
			q := snapstore.QuarantinePath(path, opts.Gen)
			if err := faultfs.Rename(path, q); err != nil {
				return report, fmt.Errorf("pipeline: scrub: quarantine %s: %w", rep.Name, err)
			}
			report.Quarantined = append(report.Quarantined, q)
		}
		if repairFile(dir, checks[i], rep.Name == man.MetaFile, opts) {
			report.Repaired = append(report.Repaired, rep.Name)
		} else {
			report.Unrepaired = append(report.Unrepaired, rep.Name)
		}
	}
	return report, nil
}

// repairFile re-materializes one missing/quarantined file — the meta file
// when isMeta, else a shard — and reports success only after the fresh
// copy verifies against its check.
func repairFile(dir string, check snapstore.FileCheck, isMeta bool, opts ScrubOptions) bool {
	if opts.Store != "" && repairFromCatalog(dir, check, opts.Store) {
		return true
	}
	if !isMeta {
		return repairFromMemory(dir, check, opts.InMem)
	}
	if opts.Meta == nil {
		return false
	}
	// The meta encoding is canonical: one that hashes to the manifest's
	// checksum is the body the save wrote.
	body, err := opts.Meta.encode()
	return err == nil && crc32.ChecksumIEEE(body) == check.Want && writeMeta(dir, check.Name, body) == nil
}

// repairFromCatalog copies the file from the newest other committed
// generation of the store at root holding content with the matching
// checksum.
func repairFromCatalog(dir string, check snapstore.FileCheck, root string) bool {
	gens, err := snapstore.ListGenerations(root)
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
func copyVerified(srcDir, srcName, dir string, check snapstore.FileCheck) bool {
	err := snapstore.WriteFileAtomic(dir, check.Name, func(w io.Writer) error {
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
	return snapstore.VerifyFiles(dir, []snapstore.FileCheck{check})[0].OK()
}

// repairFromMemory re-serializes the served in-memory shard whose frozen
// checksum matches the manifest entry — the disk copy rotted but the
// memory copy (which loaded and verified once) is still good.
func repairFromMemory(dir string, check snapstore.FileCheck, shards []*core.FrozenNet) bool {
	for _, sh := range shards {
		if sh == nil || sh.Checksum() != check.Want {
			continue
		}
		var sum uint32
		err := snapstore.WriteFileAtomic(dir, check.Name, func(w io.Writer) error {
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
