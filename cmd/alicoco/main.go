// Command alicoco builds the e-commerce cognitive concept net end-to-end
// from the synthetic testbed, prints Table-2-style statistics, and manages
// snapshot stores.
//
// Usage:
//
//	alicoco [-scale small|default] [-query "outdoor barbecue"]
//	alicoco snapshot save [-scale small|default] [-shards N] [-retain 4] -out store
//	alicoco snapshot load -in store [-query "outdoor barbecue"]
//	alicoco snapshot verify store
//	alicoco metrics lint <file|->
//
// A snapshot is one generation of a snapshot store: `snapshot save` builds
// the net and commits it into the store at -out as the next generation —
// N independently reloadable shard files (one by default) plus a
// checksummed manifest in a gen-NNNNNN directory, named by the store's
// CATALOG (serve it with `cocoserve -snapshot-dir`). Repeated saves into
// the same store append generations; -retain bounds how many the catalog
// keeps. `snapshot load` restores the store's newest generation without
// rebuilding (cold start proportional to disk bandwidth) and can answer
// queries against it. `snapshot verify` re-hashes every file of every
// generation against its manifest and catalog entry, reporting per file
// and exiting non-zero on any mismatch, without modifying the store.
//
// `metrics lint` strict-parses a Prometheus text exposition (a /metrics
// capture, or stdin with `-`) with the same validator the load driver's
// cross-check uses, exiting non-zero on any format violation — CI curls
// the live /metrics through it.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"alicoco"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "snapshot" {
		if len(os.Args) > 2 {
			switch os.Args[2] {
			case "save":
				snapshotSave(os.Args[3:])
				return
			case "load":
				snapshotLoad(os.Args[3:])
				return
			case "verify":
				snapshotVerify(os.Args[3:])
				return
			}
		}
		fmt.Fprintln(os.Stderr, "usage: alicoco snapshot save|load|verify [flags]")
		os.Exit(2)
	}
	if len(os.Args) > 1 && os.Args[1] == "metrics" {
		if len(os.Args) > 2 && os.Args[2] == "lint" {
			metricsLint(os.Args[3:])
			return
		}
		fmt.Fprintln(os.Stderr, "usage: alicoco metrics lint <file|->")
		os.Exit(2)
	}

	scale := flag.String("scale", "default", "build scale: small or default")
	query := flag.String("query", "", "optionally run one search query against the built net")
	flag.Parse()
	if flag.NArg() > 0 {
		// Catches e.g. `alicoco -scale small snapshot save`: the subcommand
		// must come first, or it would be silently ignored here.
		fmt.Fprintf(os.Stderr, "unexpected argument %q (subcommands go before flags: alicoco snapshot save|load [flags])\n", flag.Arg(0))
		os.Exit(2)
	}

	log.Printf("building AliCoCo (scale=%s)...", *scale)
	coco, err := alicoco.Build(scaleOptions(*scale))
	if err != nil {
		log.Fatalf("build: %v", err)
	}
	fmt.Println(coco.Stats().Render())
	runQuery(coco, *query)
}

func rejectExtraArgs(fs *flag.FlagSet) {
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "unexpected argument %q\n", fs.Arg(0))
		os.Exit(2)
	}
}

func scaleOptions(scale string) alicoco.Options {
	if scale == "small" {
		return alicoco.Small()
	}
	return alicoco.Default()
}

// snapshotSave builds the net and commits it as the next generation of a
// snapshot store.
func snapshotSave(args []string) {
	fs := flag.NewFlagSet("snapshot save", flag.ExitOnError)
	scale := fs.String("scale", "default", "build scale: small or default")
	out := fs.String("out", "netstore", "snapshot store to commit the generation into (created if missing)")
	shards := fs.Int("shards", 1, "shard files the generation is partitioned into")
	retain := fs.Int("retain", 0, "committed generations the snapshot store keeps (0 means the default window)")
	fs.Parse(args)
	rejectExtraArgs(fs)

	log.Printf("building AliCoCo (scale=%s)...", *scale)
	start := time.Now()
	coco, err := alicoco.Build(scaleOptions(*scale))
	if err != nil {
		log.Fatalf("build: %v", err)
	}
	log.Printf("built in %v", time.Since(start).Round(time.Millisecond))
	man, gen, err := coco.SaveShardsRetain(*out, *shards, *retain)
	if err != nil {
		log.Fatalf("save: %v", err)
	}
	log.Printf("committed generation %d to %s/ (%d shards, serve with cocoserve -snapshot-dir)",
		gen.ID, *out, man.NumShards())
	fmt.Println(coco.Stats().Render())
}

// snapshotLoad restores the newest generation of a snapshot store and
// optionally queries it.
func snapshotLoad(args []string) {
	fs := flag.NewFlagSet("snapshot load", flag.ExitOnError)
	in := fs.String("in", "netstore", "snapshot store to load the newest generation of")
	query := fs.String("query", "", "optionally run one search query against the loaded net")
	fs.Parse(args)
	rejectExtraArgs(fs)

	start := time.Now()
	coco, err := alicoco.LoadShardedFrozen(*in)
	if err != nil {
		log.Fatalf("load: %v", err)
	}
	info := coco.ServingInfo()
	log.Printf("loaded generation %d of %s (%d shards) in %v",
		info.CatalogGen, *in, info.Shards, time.Since(start).Round(time.Millisecond))
	fmt.Println(coco.Stats().Render())
	runQuery(coco, *query)
}

func runQuery(coco *alicoco.CoCo, query string) {
	if query == "" {
		return
	}
	res := coco.Search(query, 8)
	fmt.Printf("\nquery: %q\n", query)
	for _, card := range res.Cards {
		fmt.Printf("  concept card: %s\n", card.Name)
		for _, it := range card.Items {
			fmt.Printf("    - %s\n", it.Title)
		}
	}
	if len(res.Cards) == 0 {
		for i, it := range res.Items {
			if i >= 8 {
				break
			}
			fmt.Printf("  item: %s\n", it.Title)
		}
	}
}
