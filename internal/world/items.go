package world

import "sort"

// buildItems synthesizes the item layer: for every base category,
// Cfg.ItemsPerLeaf items with a brand and property values drawn from the
// domains the category's family plausibly carries.
func (w *World) buildItems() {
	brands := w.ByDomain[Brand]
	flat := flatDomainWords()
	_ = flat
	for _, leafID := range w.Leaves {
		fam := w.FamilyOfLeaf[leafID]
		attrDomains := familyAttributes[fam]
		for k := 0; k < w.Cfg.ItemsPerLeaf; k++ {
			item := &Item{
				ID:     len(w.Items),
				Leaf:   leafID,
				Family: fam,
				Brand:  -1,
			}
			if len(brands) > 0 && w.rng.Float64() < 0.8 {
				item.Brand = brands[w.rng.Intn(len(brands))]
			}
			// Pick 2-3 attribute values from distinct compatible domains.
			nAttr := 2 + w.rng.Intn(2)
			perm := w.rng.Perm(len(attrDomains))
			for _, di := range perm {
				if len(item.Attrs) >= nAttr {
					break
				}
				pool := w.ByDomain[attrDomains[di]]
				if len(pool) == 0 {
					continue
				}
				item.Attrs = append(item.Attrs, pool[w.rng.Intn(len(pool))])
			}
			item.Title = w.composeTitle(item)
			w.Items = append(w.Items, item)
			w.ItemsByLeaf[leafID] = append(w.ItemsByLeaf[leafID], item.ID)
		}
	}
}

// composeTitle renders an item title the way merchants do: brand first,
// attributes, then the category noun, occasionally a trailing quantity word.
func (w *World) composeTitle(item *Item) []string {
	var title []string
	if item.Brand >= 0 {
		title = append(title, w.Primitives[item.Brand].Tokens...)
	}
	attrs := append([]int(nil), item.Attrs...)
	w.rng.Shuffle(len(attrs), func(i, j int) { attrs[i], attrs[j] = attrs[j], attrs[i] })
	for _, a := range attrs {
		title = append(title, w.Primitives[a].Tokens...)
	}
	title = append(title, w.Primitives[item.Leaf].Tokens...)
	return title
}

// itemAudience returns the item's audience attribute primitive, or -1.
func (w *World) itemAudience(item *Item) int {
	for _, a := range item.Attrs {
		if w.Primitives[a].Domain == Audience {
			return a
		}
	}
	return -1
}

// FrameItems returns the ground-truth item IDs associated with a frame: the
// item's base category is required by the scenario and, when the frame has
// an audience constraint, the item either targets that audience or is
// audience-neutral.
func (w *World) FrameItems(f *Frame) []int {
	var out []int
	for _, leafID := range f.Required {
		for _, itemID := range w.ItemsByLeaf[leafID] {
			item := w.Items[itemID]
			if f.Audience >= 0 {
				if aud := w.itemAudience(item); aud >= 0 && aud != f.Audience {
					continue
				}
			}
			out = append(out, itemID)
		}
	}
	sort.Ints(out)
	return out
}

// ItemFrames returns the ground-truth frames an item belongs to.
func (w *World) ItemFrames(itemID int) []int {
	var out []int
	item := w.Items[itemID]
	for _, f := range w.Frames {
		required := false
		for _, leafID := range f.Required {
			if leafID == item.Leaf {
				required = true
				break
			}
		}
		if !required {
			continue
		}
		if f.Audience >= 0 {
			if aud := w.itemAudience(item); aud >= 0 && aud != f.Audience {
				continue
			}
		}
		out = append(out, f.ID)
	}
	return out
}

// ItemPrimitives returns the ground-truth primitive concepts of an item:
// its base category, brand, and attribute values.
func (w *World) ItemPrimitives(itemID int) []int {
	item := w.Items[itemID]
	out := []int{item.Leaf}
	if item.Brand >= 0 {
		out = append(out, item.Brand)
	}
	out = append(out, item.Attrs...)
	return out
}
