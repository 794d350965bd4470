package analysis_test

import (
	"strings"
	"testing"

	"mobickpt/internal/analysis"
)

func TestParseAnnot(t *testing.T) {
	tests := []struct {
		name    string
		text    string // comment text without the // marker
		isAnnot bool
		wantErr string // substring of the error, "" for valid
		kind    analysis.AnnotKind
		mutex   string
		reason  string
	}{
		{
			name: "guard single", text: "guard:mu",
			isAnnot: true, kind: analysis.AnnotGuard, mutex: "mu",
		},
		{
			// A guard names one mutex: the two-mutex form is gone and a
			// leftover one is malformed, not half-read.
			name: "guard multi", text: "guard:mu,dirMu",
			isAnnot: true, wantErr: "one mutex",
		},
		{
			name: "guard multi with spaces", text: "guard:mu, dirMu",
			isAnnot: true, wantErr: "one mutex",
		},
		{
			name: "guard none with reason", text: "guard:none immutable after construction",
			isAnnot: true, kind: analysis.AnnotGuardNone, reason: "immutable after construction",
		},
		{
			name: "guard none without reason", text: "guard:none",
			isAnnot: true, wantErr: "needs a reason",
		},
		{
			name: "guard empty", text: "guard:",
			isAnnot: true, wantErr: "bad mutex name",
		},
		{
			name: "guard trailing comma", text: "guard:mu,",
			isAnnot: true, wantErr: "bad mutex name",
		},
		{
			name: "guard bad ident", text: "guard:c.mu",
			isAnnot: true, wantErr: "bad mutex name",
		},
		{
			// Directives are unspaced; this is prose, not a directive.
			name: "spaced prose", text: " guard: the mu field protects n",
			isAnnot: false,
		},
		{
			name: "locks held", text: "locks:held mu",
			isAnnot: true, kind: analysis.AnnotHeld, mutex: "mu",
		},
		{
			name: "locks held multi", text: "locks:held mu dirMu",
			isAnnot: true, wantErr: "one mutex",
		},
		{
			name: "locks held empty", text: "locks:held",
			isAnnot: true, wantErr: "bad mutex name",
		},
		{
			name: "locks quiescent", text: "locks:quiescent setup before goroutines start",
			isAnnot: true, kind: analysis.AnnotQuiescent, reason: "setup before goroutines start",
		},
		{
			name: "locks quiescent without reason", text: "locks:quiescent",
			isAnnot: true, wantErr: "needs a reason",
		},
		{
			// No lock-order form: nothing in the tree takes two locks.
			name: "locks after", text: "locks:after mu",
			isAnnot: true, wantErr: "unknown //locks: directive",
		},
		{
			name: "locks unknown", text: "locks:sometimes mu",
			isAnnot: true, wantErr: "unknown //locks: directive",
		},
		{
			name: "lane shard", text: "lane:shard",
			isAnnot: true, kind: analysis.AnnotLaneShard,
		},
		{
			name: "lane shard with argument", text: "lane:shard lanes",
			isAnnot: true, wantErr: "takes no argument",
		},
		{
			name: "lane stopped bare", text: "lane:stopped",
			isAnnot: true, kind: analysis.AnnotLaneStopped,
		},
		{
			name: "lane stopped with reason", text: "lane:stopped regrown at barriers only",
			isAnnot: true, kind: analysis.AnnotLaneStopped, reason: "regrown at barriers only",
		},
		{
			name: "lane handler", text: "lane:handler",
			isAnnot: true, kind: analysis.AnnotLaneHandler,
		},
		{
			name: "lane unknown", text: "lane:owner",
			isAnnot: true, wantErr: "unknown //lane: directive",
		},
		{name: "foreign directive", text: "go:generate stringer", isAnnot: false},
		{name: "plain comment", text: " nothing to see here", isAnnot: false},
		{name: "prose with a colon", text: "note: guards are documented above", isAnnot: false},
		{name: "lint allow is not an annotation", text: "lint:allow simlint/guardlint x", isAnnot: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			an, isAnnot, err := analysis.ParseAnnot(tt.text)
			if isAnnot != tt.isAnnot {
				t.Fatalf("isAnnot = %v, want %v (err %v)", isAnnot, tt.isAnnot, err)
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
			if !tt.isAnnot {
				return
			}
			if an.Kind != tt.kind {
				t.Fatalf("kind = %v, want %v", an.Kind, tt.kind)
			}
			if an.Name != tt.mutex {
				t.Fatalf("mutex = %q, want %q", an.Name, tt.mutex)
			}
			if an.Reason != tt.reason {
				t.Fatalf("reason = %q, want %q", an.Reason, tt.reason)
			}
		})
	}
}

func TestAnnotFamily(t *testing.T) {
	tests := []struct {
		text   string
		family string
	}{
		{"guard:mu", "guard"},
		{"guard:none atomic", "guard"},
		{"locks:held mu", "locks"},
		{"locks:quiescent joined", "locks"},
		{"lane:shard", "lane"},
		{"lane:stopped", "lane"},
		{"lane:handler", "lane"},
	}
	for _, tt := range tests {
		an, ok, err := analysis.ParseAnnot(tt.text)
		if !ok || err != nil {
			t.Fatalf("ParseAnnot(%q) = ok %v, err %v", tt.text, ok, err)
		}
		if got := an.Family(); got != tt.family {
			t.Errorf("Family(%q) = %q, want %q", tt.text, got, tt.family)
		}
	}
}
