package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

func TestParseDirective(t *testing.T) {
	tests := []struct {
		name        string
		text        string // comment text without the // marker
		isDirective bool
		wantErr     string // substring of the error, "" for valid
		analyzer    string
		reason      string
	}{
		{
			name: "valid", text: "lint:allow simlint/detlint profiling wall clock",
			isDirective: true, analyzer: "detlint", reason: "profiling wall clock",
		},
		{
			name: "valid with leading space", text: " lint:allow simlint/lanelint runs world-stopped",
			isDirective: true, analyzer: "lanelint", reason: "runs world-stopped",
		},
		{
			name:        "valid multi-word reason keeps spacing collapsed",
			text:        "lint:allow simlint/poollint   debug   sink ",
			isDirective: true, analyzer: "poollint", reason: "debug sink",
		},
		{name: "plain comment", text: " just a comment", isDirective: false},
		{name: "different word", text: "lint:allowed simlint/detlint x", isDirective: false},
		{name: "other directive scheme", text: "go:generate stringer", isDirective: false},
		{
			name: "missing analyzer", text: "lint:allow",
			isDirective: true, wantErr: "missing analyzer",
		},
		{
			name: "missing analyzer with trailing space", text: "lint:allow   ",
			isDirective: true, wantErr: "missing analyzer",
		},
		{
			name: "foreign namespace", text: "lint:allow staticcheck/SA1000 because",
			isDirective: true, wantErr: "must name a simlint analyzer",
		},
		{
			name: "no slash", text: "lint:allow detlint because",
			isDirective: true, wantErr: "must name a simlint analyzer",
		},
		{
			name: "unknown analyzer", text: "lint:allow simlint/speedlint because",
			isDirective: true, wantErr: `unknown analyzer "speedlint"`,
		},
		{
			name: "missing reason", text: "lint:allow simlint/detlint",
			isDirective: true, wantErr: "needs a reason",
		},
		{
			name: "whitespace-only reason", text: "lint:allow simlint/guardlint \t ",
			isDirective: true, wantErr: "needs a reason",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			d, isDirective, err := ParseDirective(tt.text)
			if isDirective != tt.isDirective {
				t.Fatalf("isDirective = %v, want %v", isDirective, tt.isDirective)
			}
			if tt.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
					t.Fatalf("err = %v, want substring %q", err, tt.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !tt.isDirective {
				return
			}
			if d.Analyzer != tt.analyzer || d.Reason != tt.reason {
				t.Fatalf("got %+v, want analyzer %q reason %q", d, tt.analyzer, tt.reason)
			}
		})
	}
}

func parseTestFile(t *testing.T, src string) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "sup.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return fset, []*ast.File{f}
}

func TestSuppressionIndex(t *testing.T) {
	fset, files := parseTestFile(t, `package p

//lint:allow simlint/detlint standalone covers this and the next line
var a int

var b int //lint:allow simlint/guardlint trailing covers its own line

//lint:allow simlint/nope malformed: unknown analyzer
var c int

//lint:allow simlint/poollint
var d int
`)
	sup, bad := suppressionIndex(fset, files)

	if len(bad) != 2 {
		t.Fatalf("got %d malformed directives, want 2: %v", len(bad), bad)
	}
	for _, d := range bad {
		if d.Analyzer != allowDirectiveCheck {
			t.Errorf("malformed directive reported under %q, want %q", d.Analyzer, allowDirectiveCheck)
		}
	}

	at := func(line int) token.Position {
		return token.Position{Filename: "sup.go", Line: line}
	}
	if !sup.suppressed("detlint", at(3)) || !sup.suppressed("detlint", at(4)) {
		t.Error("standalone directive should cover its own line and the next")
	}
	if sup.suppressed("detlint", at(5)) {
		t.Error("directive must not reach two lines down")
	}
	if !sup.suppressed("guardlint", at(6)) {
		t.Error("trailing directive should cover its own line")
	}
	if sup.suppressed("guardlint", at(3)) || sup.suppressed("poollint", at(12)) {
		t.Error("malformed or foreign directives must suppress nothing")
	}
	if sup.suppressed("detlint", at(6)) {
		t.Error("a guardlint directive must not suppress detlint")
	}
}

func TestMalformedDirectiveSurvivesAsFinding(t *testing.T) {
	fset, files := parseTestFile(t, `package p

//lint:allow simlint/detlint
var a int
`)
	findings, err := RunAnalyzers(All(), fset, files, types.NewPackage("p", "p"), NewInfo())
	if err != nil {
		t.Fatalf("RunAnalyzers: %v", err)
	}
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want 1 (the malformed directive): %v", len(findings), findings)
	}
	if findings[0].Analyzer != allowDirectiveCheck || !strings.Contains(findings[0].Message, "needs a reason") {
		t.Fatalf("unexpected finding: %+v", findings[0])
	}
}
