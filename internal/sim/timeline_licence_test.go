package sim

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"mobickpt/internal/des"
	"mobickpt/internal/mlog"
	"mobickpt/internal/obs"
	"mobickpt/internal/pdes"
)

var updateLicence = flag.Bool("update", false, "rewrite testdata/timeline from the current recorder")

// licenceConfigs are the engine runs whose timelines testdata/timeline
// holds, all on a workload that switches and disconnects often: the
// sequential engine with all seven protocols and two joins, the lane
// engine at two lanes, and both message-log disciplines (log flushes).
// Each stays far under a megabyte.
func licenceConfigs() map[string]Config {
	base := DefaultConfig()
	base.Horizon = 600
	base.Workload.TSwitch, base.Workload.PSwitch, base.Workload.DisconnectMean = 100, 0.6, 50

	all := base
	all.Protocols = AllProtocols()
	all.JoinTimes = []des.Time{150, 400}

	lanes := base
	lanes.Engine, lanes.Lanes = pdes.ModeConservative, 2

	pess, opt := base, base
	pess.MessageLog, opt.MessageLog = mlog.Pessimistic, mlog.Optimistic
	return map[string]Config{"seq-all-joins": all, "lanes2": lanes, "log-pessimistic": pess, "log-optimistic": opt}
}

// TestTimelineLicence holds every engine run's timeline to the bytes the
// recorder wrote when the timeline was drawn by hooks inside the event
// path, before it became a rendering of the run's history. The files were
// written at the commit that added this test, by
//
//	go test -run TestTimelineLicence ./internal/sim -update
func TestTimelineLicence(t *testing.T) {
	for name, cfg := range licenceConfigs() {
		t.Run(name, func(t *testing.T) {
			got := timelineExport(t, cfg)
			path := filepath.Join("testdata", "timeline", name+".json")
			if *updateLicence {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("timeline differs from %s (%d vs %d bytes)", path, len(got), len(want))
			}
			if _, err := obs.ImportTimeline(bytes.NewReader(want)); err != nil {
				t.Fatal(err)
			}
		})
	}
}
