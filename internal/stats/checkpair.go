package stats

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// ParseTXT parses a table previously rendered by Table.String: a title
// line, an aligned header row, a dashed separator, and data rows. The
// separator line carries the column geometry, so cells containing
// single spaces parse back exactly.
func ParseTXT(s string) (*Table, error) {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) < 3 {
		return nil, fmt.Errorf("stats: txt table needs title, header and separator, got %d line(s)", len(lines))
	}
	title, header, sep := lines[0], lines[1], lines[2]
	// Column extents: runs of dashes in the separator, joined by "  ".
	type span struct{ start, end int }
	var spans []span
	for i := 0; i < len(sep); {
		if sep[i] != '-' {
			return nil, fmt.Errorf("stats: bad separator line %q at byte %d", sep, i)
		}
		j := i
		for j < len(sep) && sep[j] == '-' {
			j++
		}
		spans = append(spans, span{i, j})
		if j < len(sep) {
			if !strings.HasPrefix(sep[j:], "  ") {
				return nil, fmt.Errorf("stats: bad column gap in separator %q at byte %d", sep, j)
			}
			j += 2
		}
		i = j
	}
	cut := func(line string) []string {
		cells := make([]string, len(spans))
		for k, sp := range spans {
			start, end := sp.start, sp.end
			if start > len(line) {
				start = len(line)
			}
			// The last column may extend past the dashes (cells are
			// padded to the widest cell, which set the dash width).
			if k == len(spans)-1 || end > len(line) {
				end = len(line)
			}
			cells[k] = strings.TrimRight(line[start:end], " ")
		}
		return cells
	}
	t := NewTable(title, cut(header)...)
	for _, line := range lines[3:] {
		t.AddRow(cut(line)...)
	}
	return t, nil
}

// ParseCSV parses a table previously rendered by Table.CSV (header row
// plus data rows; CSV carries no title, so the result's Title is "").
func ParseCSV(s string) (*Table, error) {
	recs, err := csv.NewReader(strings.NewReader(s)).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("stats: empty csv table")
	}
	t := NewTable("", recs[0]...)
	for _, r := range recs[1:] {
		t.AddRow(r...)
	}
	return t, nil
}

// CheckPair verifies that a .txt/.csv rendering pair describes the
// same table: both parse, agree cell-for-cell, and re-render
// byte-identically to the inputs (so a hand-edited or stale file is
// caught even when the data still happens to agree). WritePair calls it
// on everything it writes.
func CheckPair(txt, csvText string) error {
	tt, err := ParseTXT(txt)
	if err != nil {
		return fmt.Errorf("txt: %w", err)
	}
	ct, err := ParseCSV(csvText)
	if err != nil {
		return fmt.Errorf("csv: %w", err)
	}
	if len(tt.Columns) != len(ct.Columns) {
		return fmt.Errorf("column count diverges: txt has %d, csv has %d", len(tt.Columns), len(ct.Columns))
	}
	for j := range tt.Columns {
		if tt.Columns[j] != ct.Columns[j] {
			return fmt.Errorf("header %d diverges: txt %q, csv %q", j, tt.Columns[j], ct.Columns[j])
		}
	}
	if tt.NumRows() != ct.NumRows() {
		return fmt.Errorf("row count diverges: txt has %d, csv has %d", tt.NumRows(), ct.NumRows())
	}
	for i := 0; i < tt.NumRows(); i++ {
		for j := range tt.Columns {
			if tt.Cell(i, j) != ct.Cell(i, j) {
				return fmt.Errorf("cell (%d,%q) diverges: txt %q, csv %q",
					i, tt.Columns[j], tt.Cell(i, j), ct.Cell(i, j))
			}
		}
	}
	// Round-trip: the parsed table must reproduce both inputs exactly.
	if got := tt.String(); got != txt {
		return fmt.Errorf("txt is not a canonical rendering of its own data:\n--- file ---\n%s--- re-render ---\n%s", txt, got)
	}
	ct.Title = tt.Title
	reRendered := ct.CSV()
	if reRendered != csvText {
		return fmt.Errorf("csv is not a canonical rendering of its own data:\n--- file ---\n%s--- re-render ---\n%s", csvText, reRendered)
	}
	return nil
}

// WritePair writes the table as dir/name.txt and dir/name.csv, creating
// dir if needed — the one writer of the committed results/ pairs. It
// fails before touching either file if the two renderings diverge: a
// pair that disagrees with itself must never be committed.
func (t *Table) WritePair(dir, name string) error {
	txt, csvText := t.String(), t.CSV()
	if err := CheckPair(txt, csvText); err != nil {
		return fmt.Errorf("%s: txt/csv pair diverges: %w", name, err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, name+".txt"), []byte(txt), 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".csv"), []byte(csvText), 0o644)
}
