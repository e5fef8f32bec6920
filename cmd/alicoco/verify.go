// `alicoco snapshot verify <store>`: offline integrity audit of a snapshot
// store. For every committed generation, the manifest is anchored to its
// catalog entry first, then every file it names — each shard body and the
// meta file — is re-hashed against its recorded checksum (catalog ->
// manifest -> file is the same chain of trust the serving scrubber walks). Strictly read-only: unlike opening the store, verify
// never sweeps or repairs anything. Exit status 0 means everything
// verified; 1 means at least one file failed, each reported on its own
// line.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"alicoco/internal/snapstore"
)

func snapshotVerify(args []string) {
	fs := flag.NewFlagSet("snapshot verify", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: alicoco snapshot verify <store>")
		os.Exit(2)
	}
	dir := fs.Arg(0)
	if !snapstore.IsStore(dir) {
		log.Fatalf("verify: %s is not a snapshot store (no %s)", dir, snapstore.CatalogName)
	}
	gens, err := snapstore.ListGenerations(dir)
	if err != nil {
		log.Fatalf("verify: %v", err)
	}
	if len(gens) == 0 {
		log.Fatalf("verify: catalog at %s has no committed generations", dir)
	}
	checked, bad := 0, 0
	for _, g := range gens {
		c, b := verifyGeneration(filepath.Join(dir, g.Dir), fmt.Sprintf("gen %d", g.ID), g.ManifestChecksum)
		checked, bad = checked+c, bad+b
	}
	if bad > 0 {
		fmt.Printf("FAIL: %d of %d files failed verification\n", bad, checked)
		os.Exit(1)
	}
	fmt.Printf("OK: %d files verified\n", checked)
}

// verifyGeneration audits one generation directory: the manifest against
// the catalog checksum, then every file the manifest names.
// It reports one line per file and never stops at the first failure — the
// whole damage report is the point.
func verifyGeneration(dir, label string, manifestSum uint32) (checked, bad int) {
	rep := snapstore.VerifyFiles(dir, []snapstore.FileCheck{{Name: snapstore.ShardManifestName, Want: manifestSum}})[0]
	checked++
	bad += printReport(label, rep)
	if !rep.OK() {
		// An untrusted manifest proves nothing about the files below it;
		// the per-file checks would be checking against lies.
		fmt.Printf("%s: manifest does not match catalog; skipping per-file checks\n", label)
		return checked, bad
	}
	man, err := snapstore.ReadManifest(dir)
	if err != nil {
		fmt.Printf("%s: %s: BAD (%v)\n", label, snapstore.ShardManifestName, err)
		return checked + 1, bad + 1
	}
	for _, rep := range snapstore.VerifyFiles(dir, man.FileChecks()) {
		checked++
		bad += printReport(label, rep)
	}
	return checked, bad
}

func printReport(label string, rep snapstore.FileReport) int {
	switch {
	case rep.OK():
		fmt.Printf("%s: %s: ok (crc32 %08x)\n", label, rep.Name, rep.Got)
		return 0
	case rep.Err != nil:
		fmt.Printf("%s: %s: BAD (%v)\n", label, rep.Name, rep.Err)
	default:
		fmt.Printf("%s: %s: BAD (crc32 %08x, manifest says %08x)\n", label, rep.Name, rep.Got, rep.Want)
	}
	return 1
}
