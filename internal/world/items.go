package world

import "sort"

// buildItems synthesizes the item layer: for every base category,
// Cfg.ItemsPerLeaf items with a brand and property values drawn from the
// domains the category's family plausibly carries.
func (w *World) buildItems() {
	brands := w.ByDomain[Brand]
	w.ItemsByLeaf = make(map[int][]int, len(w.Leaves))
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
	n := len(w.Primitives[item.Leaf].Tokens)
	if item.Brand >= 0 {
		n += len(w.Primitives[item.Brand].Tokens)
	}
	for _, a := range item.Attrs {
		n += len(w.Primitives[a].Tokens)
	}
	title := make([]string, 0, n)
	if item.Brand >= 0 {
		title = append(title, w.Primitives[item.Brand].Tokens...)
	}
	var buf [4]int
	attrs := append(buf[:0], item.Attrs...)
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

// ItemFrames returns the ground-truth frames an item belongs to, in frame
// order.
func (w *World) ItemFrames(itemID int) []int {
	return w.appendItemFrames(nil, w.Items[itemID])
}

// appendItemFrames appends to dst the frames item belongs to: those that
// require its leaf (leafFrames) and whose audience constraint, if any, the
// item either targets or is audience-neutral to.
func (w *World) appendItemFrames(dst []int, item *Item) []int {
	aud := w.itemAudience(item)
	for _, fid := range w.leafFrames[item.Leaf] {
		if fa := w.Frames[fid].Audience; fa < 0 || aud < 0 || aud == fa {
			dst = append(dst, fid)
		}
	}
	return dst
}

// indexFrames fills leafFrames from the frames' required leaves.
func (w *World) indexFrames() {
	w.leafFrames = make([][]int, len(w.Primitives))
	for _, f := range w.Frames {
		for _, leafID := range f.Required {
			w.leafFrames[leafID] = append(w.leafFrames[leafID], f.ID)
		}
	}
}

// ItemPrimitives returns the ground-truth primitive concepts of an item:
// its base category, brand, and attribute values.
func (w *World) ItemPrimitives(itemID int) []int {
	item := w.Items[itemID]
	out := append(make([]int, 0, 2+len(item.Attrs)), item.Leaf)
	if item.Brand >= 0 {
		out = append(out, item.Brand)
	}
	out = append(out, item.Attrs...)
	return out
}
