// Cognitive recommendation (Figure 2b/c of the paper): from a user's viewed
// items the engine infers the latent shopping scenario, recommends the other
// items that scenario needs, and explains itself with the concept name as
// the recommendation reason.
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

	// Simulated shopping sessions: each is a list of item IDs the user
	// browsed while (silently) planning some scenario.
	sessions := coco.SampleSessions(3)
	items := coco.Items()
	byID := make(map[int]alicoco.Item, len(items))
	for _, it := range items {
		byID[it.ID] = it
	}

	ctx := context.Background()
	for i, viewed := range sessions {
		fmt.Printf("session %d — user viewed:\n", i+1)
		for _, id := range viewed {
			fmt.Printf("  * %s\n", byID[id].Title)
		}
		rec, ok, err := coco.RecommendCtx(ctx, viewed, 5)
		if err != nil {
			log.Fatal(err)
		}
		if !ok {
			fmt.Println("  (no recommendation)")
			continue
		}
		// The reason string is what the user sees on the card (Figure 2c).
		fmt.Printf("  => card %q (reason: %q)\n", rec.Card.Name, rec.Reason)
		for _, item := range rec.Card.Items {
			fmt.Printf("     - %s (%s)\n", item.Title, item.Category)
		}
		fmt.Println()
	}
}
