// Semantic search (Figure 2a of the paper): a user types a need — even
// reordered or vague — and the engine surfaces a concept card with the items
// the scenario requires, including items whose titles share no words with
// the query (semantic drift).
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

	queries := []string{
		"outdoor barbecue",          // exact concept
		"barbecue outdoor",          // reordered keywords (the intro's example)
		"mid-autumn festival gifts", // drift: items (mooncake, tea) share no query tokens
		"tools for baking",          // the Figure 2a example
		"grill",                     // plain category query still works
	}
	ctx := context.Background()
	for _, q := range queries {
		fmt.Printf("query: %q\n", q)
		res, err := coco.SearchCtx(ctx, q, 5)
		if err != nil {
			log.Fatal(err)
		}
		if len(res.Cards) > 0 {
			for _, card := range res.Cards {
				fmt.Printf("  card %q:\n", card.Name)
				for _, item := range card.Items {
					fmt.Printf("    - %s\n", item.Title)
				}
			}
		} else {
			for i, item := range res.Items {
				if i >= 5 {
					break
				}
				fmt.Printf("  item: %s\n", item.Title)
			}
		}
		fmt.Println()
	}
}
