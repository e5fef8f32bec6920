// Package hypernym implements hypernym discovery for organizing primitive
// concepts into the fine-grained taxonomy (Section 4.2): Hearst-style
// pattern mining, a projection-learning model (bilinear tensor scoring), and
// the UCS active-learning loop of Algorithm 1, evaluated with MAP/MRR/P@1 as
// in Table 3 and Figure 9.
package hypernym

import "strings"

// PatternPair is a (hyponym, hypernym) surface-form pair extracted by an
// unsupervised rule, with the rule that produced it.
type PatternPair struct {
	Hypo, Hyper string
	Rule        string // "such_as" or "kind_of"
}

// MinePatterns scans a corpus for Hearst patterns: "<Y> such as <X> and
// <X'>" and "the <X> is a kind of <Y>" (Section 4.2.1).
func MinePatterns(corpus [][]string) []PatternPair {
	var out []PatternPair
	seen := make(map[[2]string]bool)
	add := func(hypo, hyper, rule string) {
		hypo, hyper = strings.TrimSpace(hypo), strings.TrimSpace(hyper)
		if hypo == "" || hyper == "" || hypo == hyper {
			return
		}
		key := [2]string{hypo, hyper}
		if seen[key] {
			return
		}
		seen[key] = true
		out = append(out, PatternPair{Hypo: hypo, Hyper: hyper, Rule: rule})
	}
	for _, sent := range corpus {
		joined := strings.Join(sent, " ")
		if i := strings.Index(joined, " such as "); i > 0 {
			hyper := joined[:i]
			rest := joined[i+len(" such as "):]
			for _, hypo := range strings.Split(rest, " and ") {
				add(hypo, hyper, "such_as")
			}
			continue
		}
		if i := strings.Index(joined, " is a kind of "); i > 0 {
			hypo := strings.TrimPrefix(joined[:i], "the ")
			hyper := joined[i+len(" is a kind of "):]
			add(hypo, hyper, "kind_of")
		}
	}
	return out
}
