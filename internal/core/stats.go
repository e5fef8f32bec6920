package core

import (
	"fmt"
	"sort"
	"strings"
)

// Stats summarizes the net the way Table 2 of the paper does: node counts
// per layer, primitive counts per domain, relation counts per edge kind, and
// average degrees between layers.
type Stats struct {
	Nodes           int
	Edges           int
	PerKind         map[string]int
	PrimitivesByDom map[string]int
	EdgesByKind     map[string]int

	IsAPrimitive int // isA relations in the primitive layer
	IsAEConcept  int // isA relations in the e-commerce concept layer

	AvgPrimitivesPerItem float64
	AvgEConceptsPerItem  float64
	AvgItemsPerEConcept  float64
	AvgPrimsPerEConcept  float64
}

// Render formats the stats as a Table-2-style text block.
func (s Stats) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Overall\n")
	fmt.Fprintf(&b, "  # Primitive concepts   %d\n", s.PerKind["primitive"])
	fmt.Fprintf(&b, "  # E-commerce concepts  %d\n", s.PerKind["econcept"])
	fmt.Fprintf(&b, "  # Taxonomy classes     %d\n", s.PerKind["class"])
	fmt.Fprintf(&b, "  # Items                %d\n", s.PerKind["item"])
	fmt.Fprintf(&b, "  # Relations            %d\n", s.Edges)
	fmt.Fprintf(&b, "Primitive concepts by domain\n")
	doms := make([]string, 0, len(s.PrimitivesByDom))
	for d := range s.PrimitivesByDom {
		doms = append(doms, d)
	}
	sort.Strings(doms)
	for _, d := range doms {
		fmt.Fprintf(&b, "  # %-14s %d\n", d, s.PrimitivesByDom[d])
	}
	fmt.Fprintf(&b, "Relations\n")
	fmt.Fprintf(&b, "  # IsA in primitive concepts    %d\n", s.IsAPrimitive)
	fmt.Fprintf(&b, "  # IsA in e-commerce concepts   %d\n", s.IsAEConcept)
	fmt.Fprintf(&b, "  # Item - Primitive concepts    %d\n", s.EdgesByKind["itemPrimitive"])
	fmt.Fprintf(&b, "  # Item - E-commerce concepts   %d\n", s.EdgesByKind["itemEConcept"])
	fmt.Fprintf(&b, "  # E-commerce - Primitive cpts  %d\n", s.EdgesByKind["interpretedBy"])
	fmt.Fprintf(&b, "Degrees\n")
	fmt.Fprintf(&b, "  avg primitive concepts per item   %.1f\n", s.AvgPrimitivesPerItem)
	fmt.Fprintf(&b, "  avg e-commerce concepts per item  %.1f\n", s.AvgEConceptsPerItem)
	fmt.Fprintf(&b, "  avg items per e-commerce concept  %.1f\n", s.AvgItemsPerEConcept)
	return b.String()
}
