package obs

import (
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
)

// labelPair is one escaped label; sampleLine is a whole sample line.
const labelPair = `([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\\n]|\\[\\"n])*)"`

var (
	sampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{(?:` + labelPair + `(?:,` + labelPair + `)*)?\})? (\S+)$`)
	labelRE    = regexp.MustCompile(labelPair)
)

// CheckExposition checks a Prometheus text exposition against the
// catalogue and returns how many samples it holds. It fails unless
//   - every line is a # HELP or # TYPE header or a sample that parses;
//   - every sample is in the adept2_ namespace;
//   - every family of the catalogue is declared with its TYPE;
//   - every histogram series has non-decreasing buckets at ascending le
//     bounds, ending in a +Inf bucket equal to its _count.
func CheckExposition(text []byte) (int, error) {
	types := map[string]string{}
	last := map[string][2]float64{} // histogram series → its last bucket's le and value
	counts := map[string]float64{}
	samples := 0
	for i, line := range strings.Split(strings.TrimSuffix(string(text), "\n"), "\n") {
		fail := func(format string, args ...any) (int, error) {
			return 0, fmt.Errorf("line %d: %s: %q", i+1, fmt.Sprintf(format, args...), line)
		}
		if strings.HasPrefix(line, "#") {
			f := strings.Fields(line)
			if len(f) == 4 && f[1] == "TYPE" && types[f[2]] == "" {
				types[f[2]] = f[3]
			} else if len(f) < 3 || f[1] != "HELP" {
				return fail("not a HELP or first TYPE header")
			}
			continue
		}
		m := sampleLine.FindStringSubmatch(line)
		if m == nil {
			return fail("not a sample")
		}
		value, err := strconv.ParseFloat(m[len(m)-1], 64)
		if err != nil || !strings.HasPrefix(m[1], "adept2_") {
			return fail("bad value, or outside the adept2_ namespace")
		}
		samples++
		series, le := "", ""
		for _, p := range labelRE.FindAllStringSubmatch(m[2], -1) {
			if p[1] == "le" {
				le = p[2]
			} else {
				series += p[0] + ","
			}
		}
		if fam, ok := strings.CutSuffix(m[1], "_count"); ok && types[fam] == histogram {
			counts[fam+"{"+series+"}"] = value
		}
		fam, ok := strings.CutSuffix(m[1], "_bucket")
		if !ok || types[fam] != histogram {
			continue
		}
		bound, err := strconv.ParseFloat(le, 64)
		if err != nil {
			return fail("bucket without a numeric le")
		}
		series = fam + "{" + series + "}"
		if prev, ok := last[series]; ok && (bound <= prev[0] || value < prev[1]) {
			return fail("bucket does not follow le=%v at %v", prev[0], prev[1])
		}
		last[series] = [2]float64{bound, value}
	}
	for _, f := range families {
		if types[f.name] != f.kind {
			return 0, fmt.Errorf("family %s declared as %q, want %q", f.name, types[f.name], f.kind)
		}
	}
	for _, series := range sortedKeys(counts) {
		if b, ok := last[series]; !ok || !math.IsInf(b[0], 1) || b[1] != counts[series] {
			return 0, fmt.Errorf("histogram %s: last bucket %v, want le=+Inf equal to _count %v", series, b, counts[series])
		}
		delete(last, series)
	}
	for series := range last {
		return 0, fmt.Errorf("histogram %s has buckets and no _count", series)
	}
	return samples, nil
}
