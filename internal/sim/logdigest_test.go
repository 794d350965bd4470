package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"mobickpt/internal/mlog"
)

// A logged run keeps a history whether or not it records a trace: its
// message logs refer to the history's delivery rows. That must change no
// byte of what the run reports, and a logged run without RecordTrace still
// returns no Trace. The mlog.Counters digests were taken before the logs
// kept references, when a logged run without a trace kept no history. A
// logged run's ExportJSON carries its mode and counters, so each mode has
// its own export digest; the unlogged one was taken before the export
// carried the log, which an unlogged export leaves out.
func TestLoggingWithoutTraceKeepsItsBytes(t *testing.T) {
	exports := map[mlog.Mode]string{
		mlog.Off:         "77a72b7fa500d5f34761a5f972c0f313aef39bb5dd36c7f4e87b9485efa1b7b3",
		mlog.Pessimistic: "0ed188a37010f9344c0d1214fb67f06c296af87153718fcc6bc5c921ff8ee5f9",
		mlog.Optimistic:  "a1832169a137d0bcb58d5a26ff0f6a0b864d02f25df0b16f0d4847c8eb0574b4",
	}
	counters := map[mlog.Mode]string{
		mlog.Pessimistic: "847f71921d515be7672c632129acb542868f3dd1d7b62b26830678f3259ce9a9",
		mlog.Optimistic:  "994929b2ebfc617d1f888408f1240c5b76b81991dafc622990d82b206f8f5acd",
	}
	for _, mode := range []mlog.Mode{mlog.Off, mlog.Pessimistic, mlog.Optimistic} {
		for _, record := range []bool{false, true} {
			c := DefaultConfig()
			c.Horizon = 2000
			c.Workload.TSwitch = 200
			c.Workload.PSwitch = 0.8
			c.Workload.DisconnectMean = 300
			c.GCInterval = 400
			c.MessageLog = mode
			c.RecordTrace = record
			res := mustRun(t, c)
			var out, logs bytes.Buffer
			if err := res.ExportJSON(&out); err != nil {
				t.Fatal(err)
			}
			for _, p := range res.Protocols {
				fmt.Fprintf(&logs, "%s %+v\n", p.Name, p.Log)
				if (p.Trace != nil) != record || (p.MLog != nil) != (mode != mlog.Off) {
					t.Errorf("%v RecordTrace=%v: %s has trace %v, log %v", mode, record, p.Name, p.Trace != nil, p.MLog != nil)
				}
			}
			if got := digest(out.Bytes()); got != exports[mode] {
				t.Errorf("%v RecordTrace=%v: ExportJSON digest %s, want %s", mode, record, got, exports[mode])
			}
			if got := digest(logs.Bytes()); mode != mlog.Off && got != counters[mode] {
				t.Errorf("%v RecordTrace=%v: log counters digest %s, want %s:\n%s", mode, record, got, counters[mode], logs.String())
			}
		}
	}
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
