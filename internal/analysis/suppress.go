package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Suppression directives.
//
// A finding is silenced with a comment of the form
//
//	//lint:allow simlint/<analyzer> <reason>
//
// The directive applies to the source line it appears on and, so it can
// stand above a multi-line construct, to the line immediately below it.
// The reason is mandatory: a directive without one is itself reported,
// so every sanctioned exception carries its justification in-tree.
//
// The grammar is deliberately rigid — misspelled analyzer names or a
// foreign namespace would otherwise silently suppress nothing.

// directivePrefix introduces a suppression comment. The "lint:" scheme
// follows the Go directive convention (//go:, //line), so gofmt leaves
// the comment attached and unspaced.
const directivePrefix = "lint:allow"

// allowDirectiveCheck is the pseudo-analyzer name under which malformed
// suppression directives are reported. It cannot itself be suppressed.
const allowDirectiveCheck = "allow-directive"

// A Directive is one parsed //lint:allow comment.
type Directive struct {
	// Analyzer is the suppressed analyzer ("detlint", "poollint", ...).
	Analyzer string
	// Reason is the free-text justification (never empty on a valid
	// directive).
	Reason string
}

// ParseDirective parses the text of one comment line (without the //
// marker). It returns ok=false when the comment is not a lint:allow
// directive at all, and err != nil when it is one but malformed.
func ParseDirective(text string) (d Directive, ok bool, err error) {
	body := strings.TrimSpace(text)
	if !strings.HasPrefix(body, directivePrefix) {
		return Directive{}, false, nil
	}
	rest := body[len(directivePrefix):]
	if rest != "" && !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "\t") {
		// e.g. "lint:allowed" — a different word, not our directive.
		return Directive{}, false, nil
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return Directive{}, true, fmt.Errorf("missing analyzer: want //lint:allow simlint/<analyzer> <reason>")
	}
	scheme, name, found := strings.Cut(fields[0], "/")
	if !found || scheme != "simlint" {
		return Directive{}, true, fmt.Errorf("directive %q must name a simlint analyzer (simlint/<name>)", fields[0])
	}
	valid := false
	var names []string
	for _, a := range All() {
		valid = valid || a.Name == name
		names = append(names, a.Name)
	}
	if !valid {
		return Directive{}, true, fmt.Errorf("unknown analyzer %q in //lint:allow (have %s)", name, strings.Join(names, ", "))
	}
	reason := strings.TrimSpace(strings.Join(fields[1:], " "))
	if reason == "" {
		return Directive{}, true, fmt.Errorf("//lint:allow simlint/%s needs a reason", name)
	}
	return Directive{Analyzer: name, Reason: reason}, true, nil
}

// suppressions indexes which (analyzer, file, line) triples are silenced.
type suppressions struct {
	lines map[string]struct{} // "<analyzer>\x00<file>:<line>"
}

func supKey(analyzer, file string, line int) string {
	return fmt.Sprintf("%s\x00%s:%d", analyzer, file, line)
}

func (s *suppressions) suppressed(analyzer string, pos token.Position) bool {
	if s == nil || s.lines == nil {
		return false
	}
	_, ok := s.lines[supKey(analyzer, pos.Filename, pos.Line)]
	return ok
}

// suppressionIndex scans the comments of files for lint:allow
// directives. It returns the suppression index and a diagnostic for
// every malformed directive (reported under allowDirectiveCheck).
func suppressionIndex(fset *token.FileSet, files []*ast.File) (*suppressions, []Diagnostic) {
	sup := &suppressions{lines: make(map[string]struct{})}
	var bad []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, isLine := strings.CutPrefix(c.Text, "//")
				if !isLine {
					continue // block comments cannot carry directives
				}
				d, isDirective, err := ParseDirective(text)
				if !isDirective {
					continue
				}
				pos := fset.Position(c.Pos())
				if err != nil {
					bad = append(bad, Diagnostic{
						Pos:      c.Pos(),
						Analyzer: allowDirectiveCheck,
						Message:  err.Error(),
					})
					continue
				}
				sup.lines[supKey(d.Analyzer, pos.Filename, pos.Line)] = struct{}{}
				sup.lines[supKey(d.Analyzer, pos.Filename, pos.Line+1)] = struct{}{}
			}
		}
	}
	return sup, bad
}
