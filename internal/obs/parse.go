// A strict parser for the Prometheus text exposition format. It is
// deliberately pickier than a scraping server needs to be: every sample
// must belong to a HELP+TYPE-announced family, families must not
// interleave, histogram `le` bounds must be strictly increasing with
// non-decreasing cumulative counts and a +Inf bucket equal to _count.
// Tests use it to pin the renderer's format; cocoload uses it to
// reconstruct the server-side latency histograms for the
// client-vs-server cross-check (exactly, because the renderer emits
// bounds from the shared Hist bucket layout).
package obs

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// ParsedSample is one exposition line: full sample name (including
// _bucket/_sum/_count suffixes), its labels in source order, and value.
type ParsedSample struct {
	Name   string
	Labels [][2]string
	Value  float64
}

// Label returns the sample's value for a label key ("" when absent).
func (s *ParsedSample) Label(key string) string {
	for _, kv := range s.Labels {
		if kv[0] == key {
			return kv[1]
		}
	}
	return ""
}

// matches reports whether the sample carries every given key=value pair.
func (s *ParsedSample) matches(pairs [][2]string) bool {
	for _, want := range pairs {
		if s.Label(want[0]) != want[1] {
			return false
		}
	}
	return true
}

// ParsedFamily is one HELP/TYPE-announced metric family and its samples.
type ParsedFamily struct {
	Name    string
	Help    string
	Type    string
	Samples []ParsedSample
}

// Parsed is a full scrape.
type Parsed struct {
	Families []*ParsedFamily
	byName   map[string]*ParsedFamily
}

// Family returns the named family, nil when absent.
func (p *Parsed) Family(name string) *ParsedFamily { return p.byName[name] }

// Value returns the value of the series name{pairs...} for a counter or
// gauge family; ok is false when the family or series is missing. pairs
// are alternating label key, value.
func (p *Parsed) Value(name string, pairs ...string) (float64, bool) {
	f := p.byName[name]
	if f == nil {
		return 0, false
	}
	want := labelPairs(pairs)
	for i := range f.Samples {
		s := &f.Samples[i]
		if s.Name == name && s.matches(want) && len(s.Labels) == len(want) {
			return s.Value, true
		}
	}
	return 0, false
}

func labelPairs(pairs []string) [][2]string {
	out := make([][2]string, 0, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		out = append(out, [2]string{pairs[i], pairs[i+1]})
	}
	return out
}

// HistogramSnapshot reconstructs the histogram series name{pairs...} onto
// the shared Hist bucket layout. Every `le` bound the renderer emits is a
// bucket upper bound of that layout, so the reconstruction is exact: the
// returned snapshot quantiles agree with the serving process's own Hist
// to the bucket. Bounds that do not land on the layout are an error —
// that is the cross-check catching a layout drift, not a condition to
// paper over. MaxUS is 0 (unknowable from a scrape).
func (p *Parsed) HistogramSnapshot(name string, pairs ...string) (HistSnapshot, error) {
	var snap HistSnapshot
	f := p.byName[name]
	if f == nil {
		return snap, fmt.Errorf("obs: no histogram family %q in scrape", name)
	}
	if f.Type != "histogram" {
		return snap, fmt.Errorf("obs: family %q has type %s, want histogram", name, f.Type)
	}
	want := labelPairs(pairs)
	var (
		prevCum  uint64
		prevIdx  = -1
		seenInf  bool
		count    uint64
		seenAny  bool
		sumSecs  float64
		seenSum  bool
		seenCnt  bool
		infCount uint64
	)
	for i := range f.Samples {
		s := &f.Samples[i]
		if !s.matches(want) {
			continue
		}
		switch s.Name {
		case name + "_sum":
			sumSecs, seenSum = s.Value, true
		case name + "_count":
			count, seenCnt = uint64(s.Value), true
		case name + "_bucket":
			seenAny = true
			le := s.Label("le")
			cum := uint64(s.Value)
			if le == "+Inf" {
				seenInf, infCount = true, cum
				continue
			}
			sec, err := strconv.ParseFloat(le, 64)
			if err != nil {
				return snap, fmt.Errorf("obs: %s bad le %q: %v", name, le, err)
			}
			us := uint64(math.Round(sec * 1e6))
			idx := histIndex(us)
			if histUpper(idx) != us {
				return snap, fmt.Errorf("obs: %s le %q (%dµs) is not a bucket bound of the shared layout", name, le, us)
			}
			if idx <= prevIdx {
				return snap, fmt.Errorf("obs: %s le bounds not increasing at %q", name, le)
			}
			if cum < prevCum {
				return snap, fmt.Errorf("obs: %s cumulative count regressed at le=%q", name, le)
			}
			snap.Counts[idx] = cum - prevCum
			snap.Total += cum - prevCum
			prevCum, prevIdx = cum, idx
		}
	}
	if !seenAny && !seenInf {
		return snap, fmt.Errorf("obs: histogram %q%v has no buckets in scrape", name, pairs)
	}
	if !seenInf || !seenSum || !seenCnt {
		return snap, fmt.Errorf("obs: histogram %q missing +Inf/_sum/_count", name)
	}
	if infCount < prevCum {
		return snap, fmt.Errorf("obs: histogram %q +Inf bucket %d below last bucket %d", name, infCount, prevCum)
	}
	// Observations past the last finite bound (saturated top buckets) fold
	// into the final slot so Total matches +Inf.
	if extra := infCount - prevCum; extra > 0 {
		snap.Counts[histBuckets-1] += extra
		snap.Total += extra
	}
	if snap.Total != count {
		return snap, fmt.Errorf("obs: histogram %q count %d != +Inf bucket %d", name, count, snap.Total)
	}
	snap.SumUS = uint64(math.Round(sumSecs * 1e6))
	return snap, nil
}

// ParseText parses and validates one exposition payload. Violations of
// the format — or of the invariants the renderer promises (HELP and TYPE
// before samples, no family interleaving, monotone cumulative buckets,
// +Inf == _count, label values in valid UTF-8) — are errors.
func ParseText(b []byte) (*Parsed, error) {
	p := &Parsed{byName: make(map[string]*ParsedFamily)}
	var cur *ParsedFamily
	help := make(map[string]string)
	typed := make(map[string]string)
	closed := make(map[string]bool) // families whose sample block has ended
	seenSeries := make(map[string]bool)
	lineNo := 0
	rest := string(b)
	for len(rest) > 0 {
		lineNo++
		line := rest
		if i := strings.IndexByte(rest, '\n'); i >= 0 {
			line, rest = rest[:i], rest[i+1:]
		} else {
			rest = ""
		}
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			kind, name, text, err := parseComment(line)
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", lineNo, err)
			}
			if kind == "" {
				continue // plain comment
			}
			if cur != nil && cur.Name != name {
				closed[cur.Name] = true
				cur = nil
			}
			switch kind {
			case "HELP":
				if _, dup := help[name]; dup {
					return nil, fmt.Errorf("line %d: duplicate HELP for %s", lineNo, name)
				}
				help[name] = text
			case "TYPE":
				if _, dup := typed[name]; dup {
					return nil, fmt.Errorf("line %d: duplicate TYPE for %s", lineNo, name)
				}
				switch text {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return nil, fmt.Errorf("line %d: unknown TYPE %q for %s", lineNo, text, name)
				}
				typed[name] = text
			}
			continue
		}
		sample, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		famName := familyOf(sample.Name, typed)
		if famName == "" {
			return nil, fmt.Errorf("line %d: sample %s has no preceding TYPE", lineNo, sample.Name)
		}
		if _, ok := help[famName]; !ok {
			return nil, fmt.Errorf("line %d: sample %s has no preceding HELP", lineNo, sample.Name)
		}
		if cur == nil || cur.Name != famName {
			if cur != nil {
				closed[cur.Name] = true
			}
			if closed[famName] {
				return nil, fmt.Errorf("line %d: family %s interleaved", lineNo, famName)
			}
			cur = p.byName[famName]
			if cur == nil {
				cur = &ParsedFamily{Name: famName, Help: help[famName], Type: typed[famName]}
				p.Families = append(p.Families, cur)
				p.byName[famName] = cur
			}
		}
		key := seriesKey(sample)
		if seenSeries[key] {
			return nil, fmt.Errorf("line %d: duplicate series %s", lineNo, key)
		}
		seenSeries[key] = true
		if cur.Type == "counter" && sample.Value < 0 {
			return nil, fmt.Errorf("line %d: counter %s is negative", lineNo, sample.Name)
		}
		cur.Samples = append(cur.Samples, sample)
	}
	for _, f := range p.Families {
		if f.Type == "histogram" {
			if err := validateHistFamily(f); err != nil {
				return nil, err
			}
		}
	}
	return p, nil
}

// validateHistFamily checks the bucket invariants of every series in a
// histogram family (grouped by its non-le label set).
func validateHistFamily(f *ParsedFamily) error {
	type state struct {
		lastLe  float64
		lastCum float64
		haveInf bool
		inf     float64
		count   float64
		haveCnt bool
	}
	states := make(map[string]*state)
	get := func(s *ParsedSample) *state {
		var b strings.Builder
		for _, kv := range s.Labels {
			if kv[0] == "le" {
				continue
			}
			b.WriteString(kv[0])
			b.WriteByte('=')
			b.WriteString(kv[1])
			b.WriteByte(';')
		}
		k := b.String()
		st := states[k]
		if st == nil {
			st = &state{lastLe: math.Inf(-1), lastCum: -1}
			states[k] = st
		}
		return st
	}
	for i := range f.Samples {
		s := &f.Samples[i]
		st := get(s)
		switch s.Name {
		case f.Name + "_bucket":
			leStr := s.Label("le")
			if leStr == "" {
				return fmt.Errorf("obs: %s bucket without le label", f.Name)
			}
			le := inf
			if leStr != "+Inf" {
				v, err := strconv.ParseFloat(leStr, 64)
				if err != nil {
					return fmt.Errorf("obs: %s bad le %q", f.Name, leStr)
				}
				le = v
			}
			if le <= st.lastLe {
				return fmt.Errorf("obs: %s le bounds not strictly increasing at %q", f.Name, leStr)
			}
			if st.lastCum >= 0 && s.Value < st.lastCum {
				return fmt.Errorf("obs: %s cumulative bucket regressed at le=%q", f.Name, leStr)
			}
			st.lastLe, st.lastCum = le, s.Value
			if math.IsInf(le, 1) {
				st.haveInf, st.inf = true, s.Value
			}
		case f.Name + "_count":
			st.count, st.haveCnt = s.Value, true
		case f.Name + "_sum":
		default:
			return fmt.Errorf("obs: unexpected sample %s in histogram family %s", s.Name, f.Name)
		}
	}
	for k, st := range states {
		if !st.haveInf {
			return fmt.Errorf("obs: %s{%s} missing le=\"+Inf\" bucket", f.Name, k)
		}
		if !st.haveCnt {
			return fmt.Errorf("obs: %s{%s} missing _count", f.Name, k)
		}
		if st.inf != st.count {
			return fmt.Errorf("obs: %s{%s} +Inf bucket %v != count %v", f.Name, k, st.inf, st.count)
		}
	}
	return nil
}

// familyOf maps a sample name to its announced family: exact match, or
// the histogram/summary suffix forms.
func familyOf(sample string, typed map[string]string) string {
	if _, ok := typed[sample]; ok {
		return sample
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base, found := strings.CutSuffix(sample, suf)
		if !found {
			continue
		}
		if t, ok := typed[base]; ok && (t == "histogram" || t == "summary") {
			return base
		}
	}
	return ""
}

func seriesKey(s ParsedSample) string {
	var b strings.Builder
	b.WriteString(s.Name)
	b.WriteByte('{')
	for _, kv := range s.Labels {
		b.WriteString(kv[0])
		b.WriteByte('=')
		b.WriteString(kv[1])
		b.WriteByte(',')
	}
	b.WriteByte('}')
	return b.String()
}

// parseComment handles `# HELP name text`, `# TYPE name type`, and plain
// comments (returned with kind "").
func parseComment(line string) (kind, name, text string, err error) {
	body := strings.TrimPrefix(line, "#")
	if !strings.HasPrefix(body, " ") {
		return "", "", "", nil
	}
	body = body[1:]
	switch {
	case strings.HasPrefix(body, "HELP "):
		rest := body[len("HELP "):]
		name, text, _ = strings.Cut(rest, " ")
		if !validMetricName(name) {
			return "", "", "", fmt.Errorf("bad HELP metric name %q", name)
		}
		return "HELP", name, unescapeHelp(text), nil
	case strings.HasPrefix(body, "TYPE "):
		rest := body[len("TYPE "):]
		var ok bool
		name, text, ok = strings.Cut(rest, " ")
		if !ok || !validMetricName(name) {
			return "", "", "", fmt.Errorf("bad TYPE line %q", line)
		}
		return "TYPE", name, text, nil
	}
	return "", "", "", nil
}

func unescapeHelp(s string) string {
	if !strings.Contains(s, `\`) {
		return s
	}
	s = strings.ReplaceAll(s, `\n`, "\n")
	return strings.ReplaceAll(s, `\\`, `\`)
}

// parseSampleLine parses `name{labels} value` (no timestamps: the
// renderer never emits them, so the strict parser rejects them).
func parseSampleLine(line string) (ParsedSample, error) {
	var s ParsedSample
	i := 0
	for i < len(line) && isNameChar(line[i], i == 0) {
		i++
	}
	if i == 0 {
		return s, fmt.Errorf("bad sample line %q", line)
	}
	s.Name = line[:i]
	rest := line[i:]
	if strings.HasPrefix(rest, "{") {
		end, labels, err := parseLabels(rest)
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = rest[end:]
	}
	if !strings.HasPrefix(rest, " ") {
		return s, fmt.Errorf("missing value separator in %q", line)
	}
	valStr := strings.TrimPrefix(rest, " ")
	if valStr == "" || strings.ContainsAny(valStr, " \t") {
		return s, fmt.Errorf("bad (or timestamped) value in %q", line)
	}
	v, err := parseValue(valStr)
	if err != nil {
		return s, fmt.Errorf("bad value %q: %v", valStr, err)
	}
	s.Value = v
	return s, nil
}

func parseValue(v string) (float64, error) {
	switch v {
	case "+Inf":
		return inf, nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(v, 64)
}

func isNameChar(c byte, first bool) bool {
	alpha := (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':'
	return alpha || (!first && c >= '0' && c <= '9')
}

// parseLabels parses `{k="v",...}` returning the byte length consumed.
func parseLabels(s string) (int, [][2]string, error) {
	var labels [][2]string
	i := 1 // past '{'
	for {
		if i >= len(s) {
			return 0, nil, fmt.Errorf("unterminated label set")
		}
		if s[i] == '}' {
			return i + 1, labels, nil
		}
		start := i
		for i < len(s) && s[i] != '=' {
			i++
		}
		key := s[start:i]
		if !validLabelName(key) {
			return 0, nil, fmt.Errorf("bad label name %q", key)
		}
		i++ // '='
		if i >= len(s) || s[i] != '"' {
			return 0, nil, fmt.Errorf("label %s value not quoted", key)
		}
		i++
		var val strings.Builder
		for {
			if i >= len(s) {
				return 0, nil, fmt.Errorf("unterminated label value for %s", key)
			}
			c := s[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' {
				if i+1 >= len(s) {
					return 0, nil, fmt.Errorf("dangling escape in label %s", key)
				}
				switch s[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return 0, nil, fmt.Errorf("bad escape \\%c in label %s", s[i+1], key)
				}
				i += 2
				continue
			}
			val.WriteByte(c)
			i++
		}
		if !utf8.ValidString(val.String()) {
			return 0, nil, fmt.Errorf("label %s value is not valid UTF-8", key)
		}
		labels = append(labels, [2]string{key, val.String()})
		if i < len(s) && s[i] == ',' {
			i++
		} else if i >= len(s) || s[i] != '}' {
			return 0, nil, fmt.Errorf("unterminated label set after %s", key)
		}
	}
}
