// Scenario planner: the intro's motivating user — "I'm hosting a barbecue
// next week, what do I need?" — answered by walking the concept net: resolve
// the scenario concept, read its interpretation, and assemble a shopping
// list grouped by category, one suggested item each.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"alicoco"
)

func main() {
	coco, err := alicoco.Build(alicoco.Small())
	if err != nil {
		log.Fatal(err)
	}

	for _, scenario := range []string{"outdoor barbecue", "camping trip", "keep warm for kids"} {
		cpt, ok := coco.LookupConcept(scenario)
		if !ok {
			log.Fatalf("scenario %q not in the net", scenario)
		}
		fmt.Printf("planning %q — understood as %v\n", scenario, cpt.Primitives)

		// One suggested item per category the scenario requires.
		res, err := coco.SearchCtx(context.Background(), scenario, 50)
		if err != nil {
			log.Fatal(err)
		}
		if len(res.Cards) == 0 {
			fmt.Println("  nothing found")
			continue
		}
		seen := make(map[string]bool)
		fmt.Println("  shopping list:")
		for _, item := range res.Cards[0].Items {
			if seen[item.Category] {
				continue
			}
			seen[item.Category] = true
			fmt.Printf("    %-12s -> %s\n", item.Category, item.Title)
		}
		// The net also explains WHY via the gloss of the scenario's
		// anchor primitive (prefer the Event/Time/Function reading).
		anchor := ""
		for _, prim := range cpt.Primitives {
			if strings.HasPrefix(prim, "Event:") || strings.HasPrefix(prim, "Time:") || strings.HasPrefix(prim, "Function:") {
				anchor = prim
				break
			}
		}
		if anchor == "" && len(cpt.Primitives) > 0 {
			anchor = cpt.Primitives[0]
		}
		if anchor != "" {
			name := anchor[strings.Index(anchor, ":")+1:]
			for _, gloss := range coco.Glosses(name) {
				if strings.Contains(gloss, "occasion") || strings.Contains(gloss, "time") || strings.Contains(gloss, "function") {
					fmt.Printf("  because: %s\n", gloss)
					break
				}
			}
		}
		fmt.Println()
	}
}
