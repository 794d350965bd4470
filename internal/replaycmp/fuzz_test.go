package replaycmp_test

import (
	"bytes"
	"testing"

	"mobickpt/internal/live"
	"mobickpt/internal/replaycmp"
	"mobickpt/internal/sim"
)

// FuzzImportBundle feeds arbitrary bytes to ImportBundle — the file a
// user hands to `mhsim -replay-schedule`, and the one parser of recorded
// schedules — and then does to an accepted bundle what mhsim does: replay
// its schedule and compare. A rejection is an error and no bundle. An
// accepted bundle survives Export -> ImportBundle -> Export with
// byte-identical JSON, its live log equals itself, and its replay either
// fails with an error or yields a log Compare can hold against the live
// one, whatever rows that one carries; nothing panics, and what it costs
// follows the input's size, not the numbers written in it.
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
	inFlight := bytes.Index(whole, []byte(`"in_flight":`)) + len(`"in_flight":`)
	f.Add(whole)
	f.Add(whole[:len(whole)/2])                                                                           // truncated mid-schedule
	f.Add(whole[:inFlight+1])                                                                             // truncated in the in-flight section
	f.Add(bytes.Replace(whole, []byte(`"host":`), []byte(`"peer":`), 1))                                  // one event's fields swapped
	f.Add(bytes.Replace(whole, []byte(`"kind":"send"`), []byte(`"kind":"deliver"`), 1))                   // a delivery nobody sent
	f.Add(bytes.Replace(whole, []byte(`"hosts":8`), []byte(`"hosts":99999999999`), 1))                    // a host count no table could hold
	f.Add(bytes.Replace(whole, []byte(`"deliveries":[[`), []byte(`"deliveries":[[],[`), 1))               // a delivery row too many
	f.Add(bytes.Replace(whole, []byte(`"checkpoints":[[`), []byte(`"checkpoints":[[],[`), 1))             // a checkpoint row too many
	f.Add(bytes.Replace(whole, []byte(`"live":{"protocol":"QBC"`), []byte(`"live":{"protocol":"TP"`), 1)) // another protocol's log
	f.Add(bytes.Replace(whole, []byte(`"kind":"forced"`), []byte(`"kind":"basic"`), 1))                   // one decision flipped
	f.Add([]byte(`{"schedule":{"hosts":2,"stations":2,"protocol":"XX","events":null,"in_flight":null},` +
		`"live":{"protocol":"XX","checkpoints":[null,null],"deliveries":[null,null],"recovery_lines":null}}`)) // shapely, unreplayable
	f.Add([]byte(`{"schedule":{"hosts":3,"stations":2,"protocol":"QBC","seed":7,"events":[` +
		`{"seq":0,"tick":1,"kind":"send","host":0,"peer":1,"msg":1,"from":-1,"to":-1},` +
		`{"seq":1,"tick":2,"kind":"disconnect","host":2,"peer":-1,"msg":0,"from":0,"to":-1},` +
		`{"seq":2,"tick":3,"kind":"join","host":3,"peer":-1,"msg":0,"from":-1,"to":1}],"in_flight":[1]},` +
		`"live":{"protocol":"QBC","checkpoints":[[],[],[],[]],"deliveries":[[],[],[],[]],"recovery_lines":null}}`)) // hand-written, three events
	f.Add([]byte(`{"schedule":null,"live":null}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := replaycmp.ImportBundle(bytes.NewReader(data))
		if err != nil {
			if b != nil {
				t.Fatalf("ImportBundle returned both a bundle and %v", err)
			}
			return
		}
		var first, second bytes.Buffer
		if err := b.Export(&first); err != nil {
			t.Fatalf("imported bundle does not export: %v", err)
		}
		again, err := replaycmp.ImportBundle(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("exported bundle does not re-import: %v", err)
		}
		if err := again.Export(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip changed the JSON:\n first  %s\n second %s", first.Bytes(), second.Bytes())
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
