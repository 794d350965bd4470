package trace_test

// An external test package: the seed corpus is a schedule recorded by the
// live cluster, which imports this one.

import (
	"bytes"
	"testing"

	"mobickpt/internal/live"
	"mobickpt/internal/trace"
)

// recordedSchedule runs a small recording cluster (with joins, so every
// event kind appears) and returns its exported schedule.
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
	var buf bytes.Buffer
	if err := c.Schedule().Export(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzImportSchedule feeds arbitrary bytes to ImportSchedule — the file a
// user hands to `mhsim -replay-schedule`. It must return an error or a
// schedule that validates and survives Export -> ImportSchedule with
// byte-identical JSON; it must never panic, and what it costs must follow
// the input's size, not the numbers written in it.
func FuzzImportSchedule(f *testing.F) {
	whole := recordedSchedule(f)
	if _, err := trace.ImportSchedule(bytes.NewReader(whole)); err != nil {
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
		s, err := trace.ImportSchedule(bytes.NewReader(b))
		if err != nil {
			if s != nil {
				t.Fatalf("ImportSchedule returned both a schedule and %v", err)
			}
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("imported schedule does not validate: %v", err)
		}
		var first, second bytes.Buffer
		if err := s.Export(&first); err != nil {
			t.Fatalf("imported schedule does not export: %v", err)
		}
		again, err := trace.ImportSchedule(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("exported schedule does not re-import: %v", err)
		}
		if err := again.Export(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip changed the JSON:\n first  %s\n second %s", first.Bytes(), second.Bytes())
		}
	})
}
