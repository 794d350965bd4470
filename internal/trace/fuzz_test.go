package trace_test

// An external test package: the seed corpus is a schedule recorded by the
// live cluster, which imports this one.

import (
	"bytes"
	"encoding/json"
	"testing"

	"mobickpt/internal/live"
	"mobickpt/internal/trace"
)

// recordedSchedule runs a small recording cluster (with joins, so every
// event kind appears) and returns its schedule in the JSON form a bundle
// carries.
func recordedSchedule(t testing.TB) []byte {
	t.Helper()
	mk, err := live.Factory("QBC")
	if err != nil {
		t.Fatal(err)
	}
	cfg := live.DefaultConfig()
	cfg.OpsPerHost = 200
	cfg.Joins = 2
	cfg.Record = true
	c, err := live.NewCluster(cfg, mk)
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	return encode(t, c.Schedule())
}

func encode(t testing.TB, s *trace.Schedule) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(s); err != nil {
		t.Fatalf("schedule does not encode: %v", err)
	}
	return buf.Bytes()
}

// importSchedule reads a schedule the way replaycmp.ImportBundle reads a
// bundle's schedule section: decode, then Validate.
func importSchedule(b []byte) (*trace.Schedule, error) {
	var s trace.Schedule
	if err := json.NewDecoder(bytes.NewReader(b)).Decode(&s); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// FuzzImportSchedule feeds arbitrary bytes to the schedule half of the
// bundle parser `mhsim -replay-schedule` runs (FuzzImportBundle in
// internal/replaycmp covers the whole bundle). Decoding and Validate must
// never panic, and what they cost must follow the input's size, not the
// numbers written in it; a schedule that validates survives
// encode -> decode -> encode with byte-identical JSON.
func FuzzImportSchedule(f *testing.F) {
	whole := recordedSchedule(f)
	if _, err := importSchedule(whole); err != nil {
		f.Fatalf("the recorded schedule does not import: %v", err)
	}
	f.Add(whole)
	f.Add(whole[:len(whole)/2])                                                         // truncated mid-event
	f.Add(whole[:len(whole)-3])                                                         // truncated in the in-flight section
	f.Add(bytes.Replace(whole, []byte(`"host":`), []byte(`"peer":`), 1))                // one event's fields swapped
	f.Add(bytes.Replace(whole, []byte(`"kind":"send"`), []byte(`"kind":"deliver"`), 1)) // a delivery nobody sent
	f.Add(bytes.Replace(whole, []byte(`"hosts":8`), []byte(`"hosts":99999999999`), 1))  // a host count no table could hold
	f.Add([]byte(`{"hosts":3,"stations":2,"protocol":"QBC","seed":7,"events":[` +
		`{"seq":0,"tick":1,"kind":"send","host":0,"peer":1,"msg":1,"from":-1,"to":-1},` +
		`{"seq":1,"tick":2,"kind":"disconnect","host":2,"peer":-1,"msg":0,"from":0,"to":-1},` +
		`{"seq":2,"tick":3,"kind":"join","host":3,"peer":-1,"msg":0,"from":-1,"to":1}],"in_flight":[1]}`))
	f.Add([]byte(`{"hosts":2,"stations":2,"protocol":"TP","events":null,"in_flight":null}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := importSchedule(b)
		if err != nil {
			return
		}
		first := encode(t, s)
		again, err := importSchedule(first)
		if err != nil {
			t.Fatalf("encoded schedule does not re-import: %v", err)
		}
		if second := encode(t, again); !bytes.Equal(first, second) {
			t.Fatalf("round trip changed the JSON:\n first  %s\n second %s", first, second)
		}
	})
}
