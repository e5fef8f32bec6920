// Quickstart: build a small concept net, inspect it, and run one query.
package main

import (
	"context"
	"fmt"
	"log"

	"alicoco"
)

func main() {
	coco, err := alicoco.Build(alicoco.Small())
	if err != nil {
		log.Fatal(err)
	}

	// The four layers of the net (Figure 1 of the paper).
	s := coco.Stats()
	fmt.Println("AliCoCo built:")
	fmt.Printf("  %d taxonomy classes, %d primitive concepts,\n", s.Classes, s.Primitives)
	fmt.Printf("  %d e-commerce concepts, %d items, %d relations\n\n", s.EConcepts, s.Items, s.Relations)

	// A shopping-scenario query: the search engine answers with a concept
	// card, not just keyword hits.
	res, err := coco.SearchCtx(context.Background(), "outdoor barbecue", 5)
	if err != nil {
		log.Fatal(err)
	}
	for _, card := range res.Cards {
		fmt.Printf("concept card: %q\n", card.Name)
		for _, item := range card.Items {
			fmt.Printf("  - %s (%s)\n", item.Title, item.Category)
		}
	}

	// The net can explain what a concept means via its primitive concepts.
	cpt, _ := coco.LookupConcept("outdoor barbecue")
	fmt.Printf("\ninterpretation: %v (%d associated items)\n", cpt.Primitives, cpt.ItemCount)

	// And it knows taxonomy: coat isA outerwear isA clothing.
	fmt.Printf("hypernyms of coat: %v\n", coco.Hypernyms("coat"))
}
