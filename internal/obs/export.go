package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// escapeLabelValue applies the Prometheus text-format escaping rules for
// label values: backslash, double quote and newline.
func escapeLabelValue(v string) string {
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// renderLabels renders a {k="v",...} block, with extra pairs appended
// after the sample's own labels (used for histogram le bounds). Returns
// "" for an empty label set.
func renderLabels(labels []Label, extra ...Label) string {
	if len(labels)+len(extra) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for _, l := range append(append([]Label(nil), labels...), extra...) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, `%s="%s"`, l.Key, escapeLabelValue(l.Value))
	}
	b.WriteByte('}')
	return b.String()
}

// formatFloat renders a float64 the same way on every run (shortest
// round-trippable form; Prometheus accepts Go's 'g' output).
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp applies the Prometheus text-format escaping rules for
// # HELP text: backslash and newline (quotes stay literal).
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// helpFor returns the HELP text for a metric name: the registered text
// when present, otherwise a readable fallback derived from the name,
// so that every exposed metric family carries a # HELP line.
func (s Snapshot) helpFor(name string) string {
	if t, ok := s.Help[name]; ok {
		return t
	}
	return strings.ReplaceAll(name, "_", " ") + "."
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4): one # HELP and # TYPE header per metric name
// (registered help text, or a name-derived fallback), counters and
// gauges as plain samples, histograms as cumulative _bucket series
// plus _sum and _count.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	header := func(name, typ string) {
		fmt.Fprintf(&b, "# HELP %s %s\n", name, escapeHelp(s.helpFor(name)))
		fmt.Fprintf(&b, "# TYPE %s %s\n", name, typ)
	}
	writeScalars := func(samples []Sample, typ string) {
		lastName := ""
		for _, sm := range samples {
			if sm.Name != lastName {
				header(sm.Name, typ)
				lastName = sm.Name
			}
			fmt.Fprintf(&b, "%s%s %d\n", sm.Name, renderLabels(sm.Labels), sm.Value)
		}
	}
	writeScalars(s.Counters, "counter")
	writeScalars(s.Gauges, "gauge")
	lastName := ""
	for _, h := range s.Histograms {
		if h.Name != lastName {
			header(h.Name, "histogram")
			lastName = h.Name
		}
		for i, bound := range h.Bounds {
			le := Label{Key: "le", Value: formatFloat(bound)}
			fmt.Fprintf(&b, "%s_bucket%s %d\n", h.Name, renderLabels(h.Labels, le), h.Counts[i])
		}
		inf := Label{Key: "le", Value: "+Inf"}
		fmt.Fprintf(&b, "%s_bucket%s %d\n", h.Name, renderLabels(h.Labels, inf), h.Count)
		fmt.Fprintf(&b, "%s_sum%s %s\n", h.Name, renderLabels(h.Labels), formatFloat(h.Sum))
		fmt.Fprintf(&b, "%s_count%s %d\n", h.Name, renderLabels(h.Labels), h.Count)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
