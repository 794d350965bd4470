package sim

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"mobickpt/internal/des"
)

// floatFields lists every float-valued parameter a Config carries —
// its own, its mobile.Config's and its workload.Config's — with a setter.
// TestNonFiniteTableIsComplete holds the list to the structs by reflection.
var floatFields = []struct {
	name string
	set  func(*Config, float64)
}{
	{"Horizon", func(c *Config, v float64) { c.Horizon = des.Time(v) }},
	{"SnapshotPeriod", func(c *Config, v float64) { c.SnapshotPeriod = des.Time(v) }},
	{"CheckpointLatency", func(c *Config, v float64) { c.CheckpointLatency = des.Time(v) }},
	{"GCInterval", func(c *Config, v float64) { c.GCInterval = des.Time(v) }},
	{"ProgressEvery", func(c *Config, v float64) { c.ProgressEvery = des.Time(v) }},
	{"JoinTimes[1]", func(c *Config, v float64) { c.JoinTimes = []des.Time{5, des.Time(v)} }},
	{"WirelessLatency", func(c *Config, v float64) { c.Mobile.WirelessLatency = des.Time(v) }},
	{"WiredLatency", func(c *Config, v float64) { c.Mobile.WiredLatency = des.Time(v) }},
	{"LossProbability", func(c *Config, v float64) { c.Mobile.LossProbability = v }},
	{"RetransmitTimeout", func(c *Config, v float64) { c.Mobile.RetransmitTimeout = des.Time(v) }},
	{"PComm", func(c *Config, v float64) { c.Workload.PComm = v }},
	{"PSend", func(c *Config, v float64) { c.Workload.PSend = v }},
	{"OperationMean", func(c *Config, v float64) { c.Workload.OperationMean = v }},
	{"TSwitch", func(c *Config, v float64) { c.Workload.TSwitch = v }},
	{"PSwitch", func(c *Config, v float64) { c.Workload.PSwitch = v }},
	{"DisconnectMean", func(c *Config, v float64) { c.Workload.DisconnectMean = v }},
	{"Heterogeneity", func(c *Config, v float64) { c.Workload.Heterogeneity = v }},
	{"FastFactor", func(c *Config, v float64) { c.Workload.FastFactor = v }},
}

// TestNonFiniteConfigRejected: NaN passes every "x <= 0" range test and
// an infinity passes "x > 0"; a run configured with either used to hang
// (no event time is ever "> NaN") or print a table of nothing. Every
// float parameter × {NaN, +Inf, −Inf} must be an error naming the field,
// on either queue.
func TestNonFiniteConfigRejected(t *testing.T) {
	for _, f := range floatFields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			for _, q := range []des.QueueKind{des.QueueHeap, des.QueueCalendar} {
				c := DefaultConfig()
				c.Horizon = 100
				c.Queue = q
				f.set(&c, v)
				err := c.Validate()
				if err == nil {
					t.Fatalf("%s = %v on the %s queue: Validate accepts it", f.name, v, q)
				}
				if !strings.Contains(err.Error(), f.name) || !strings.Contains(err.Error(), "finite") {
					t.Errorf("%s = %v: error %q does not name the field", f.name, v, err)
				}
				// Run must refuse it too — not start and never return.
				if _, err := Run(c); err == nil {
					t.Errorf("%s = %v on the %s queue: Run accepts it", f.name, v, q)
				}
			}
		}
	}
}

// TestNonFiniteTableIsComplete: a float field added to one of the three
// configs must be added to floatFields (and so to a Validate).
func TestNonFiniteTableIsComplete(t *testing.T) {
	want := map[string]bool{}
	var walk func(reflect.Type)
	walk = func(ty reflect.Type) {
		for i := 0; i < ty.NumField(); i++ {
			f := ty.Field(i)
			switch {
			case f.Type.Kind() == reflect.Float64:
				want[f.Name] = true
			case f.Type.Kind() == reflect.Slice && f.Type.Elem().Kind() == reflect.Float64:
				want[f.Name+"[1]"] = true
			case f.Name == "Mobile" || f.Name == "Workload":
				walk(f.Type)
			}
		}
	}
	walk(reflect.TypeOf(Config{}))
	for _, f := range floatFields {
		if !want[f.name] {
			t.Errorf("floatFields names %s, which is not a float field of the configs", f.name)
		}
		delete(want, f.name)
	}
	for name := range want {
		t.Errorf("float field %s is not in floatFields: nothing holds its Validate to rejecting NaN and ±Inf", name)
	}
}
