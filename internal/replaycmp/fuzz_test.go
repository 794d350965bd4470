package replaycmp_test

import (
	"bytes"
	"testing"

	"mobickpt/internal/live"
	"mobickpt/internal/replaycmp"
	"mobickpt/internal/sim"
)

// FuzzImportBundle feeds arbitrary bytes to ImportBundle — the file a
// user hands to `mhsim -replay-schedule` — and then does to an accepted
// bundle what mhsim does: replay its schedule and compare. A rejection is
// an error and no bundle. An accepted bundle's live log equals itself,
// and its replay either fails with an error or yields a log Compare can
// hold against the live one, whatever rows that one carries; nothing
// panics.
func FuzzImportBundle(f *testing.F) {
	cfg := live.DefaultConfig()
	cfg.OpsPerHost = 60
	cfg.Joins = 1
	c := record(f, cfg, "QBC")
	var buf bytes.Buffer
	if err := (&replaycmp.Bundle{Schedule: c.Schedule(), Live: c.Decisions()}).Export(&buf); err != nil {
		f.Fatal(err)
	}
	whole := buf.Bytes()
	if _, err := replaycmp.ImportBundle(bytes.NewReader(whole)); err != nil {
		f.Fatalf("the recorded bundle does not import: %v", err)
	}
	f.Add(whole)
	f.Add(whole[:len(whole)/2])                                                                           // truncated mid-schedule
	f.Add(bytes.Replace(whole, []byte(`"deliveries":[[`), []byte(`"deliveries":[[],[`), 1))               // a delivery row too many
	f.Add(bytes.Replace(whole, []byte(`"checkpoints":[[`), []byte(`"checkpoints":[[],[`), 1))             // a checkpoint row too many
	f.Add(bytes.Replace(whole, []byte(`"live":{"protocol":"QBC"`), []byte(`"live":{"protocol":"TP"`), 1)) // another protocol's log
	f.Add(bytes.Replace(whole, []byte(`"kind":"forced"`), []byte(`"kind":"basic"`), 1))                   // one decision flipped
	f.Add([]byte(`{"schedule":{"hosts":2,"stations":2,"protocol":"XX","events":null,"in_flight":null},` +
		`"live":{"protocol":"XX","checkpoints":[null,null],"deliveries":[null,null],"recovery_lines":null}}`)) // shapely, unreplayable
	f.Add([]byte(`{"schedule":null,"live":null}`))
	f.Add([]byte(`{}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := replaycmp.ImportBundle(bytes.NewReader(data))
		if err != nil {
			if b != nil {
				t.Fatalf("ImportBundle returned both a bundle and %v", err)
			}
			return
		}
		if d := replaycmp.Compare(b.Live, b.Live, b.Schedule); d != nil {
			t.Fatalf("an imported live log diverges from itself: %v", d)
		}
		// A row per host bounds the host count by the input's size, but TP's
		// vectors are quadratic in it (ROADMAP item 5): replay small worlds.
		if b.Schedule.FinalHosts() > 256 {
			return
		}
		res, err := sim.Run(sim.Config{Schedule: b.Schedule})
		if err != nil {
			return
		}
		replaycmp.Compare(b.Live, res.Decisions, b.Schedule)
	})
}
