package sim

import (
	"encoding/json"
	"io"

	"mobickpt/internal/mlog"
)

// exportedResult is the stable JSON shape of a run: the scalar outcomes,
// without the in-memory stores and traces (a recorded run's history
// exports separately, as a replayable schedule: History.Schedule).
type exportedResult struct {
	Seed           uint64             `json:"seed"`
	Horizon        float64            `json:"horizon"`
	Hosts          int                `json:"hosts"`
	FinalHosts     int                `json:"final_hosts"`
	Stations       int                `json:"stations"`
	TSwitch        float64            `json:"t_switch"`
	PSwitch        float64            `json:"p_switch"`
	PSend          float64            `json:"p_send"`
	PComm          float64            `json:"p_comm"`
	H              float64            `json:"heterogeneity"`
	SnapshotPeriod float64            `json:"snapshot_period"`
	GCInterval     float64            `json:"gc_interval"`
	JoinTimes      []float64          `json:"join_times,omitempty"`
	MessageLog     string             `json:"message_log,omitempty"`
	EventsFired    uint64             `json:"events_fired"`
	Workload       exportedWorkload   `json:"workload"`
	Network        exportedNetwork    `json:"network"`
	Protocols      []exportedProtocol `json:"protocols"`
	// Probes is engine-dependent (lane shapes, pool traffic); it is only
	// present when the run enabled Config.Probes, so probe-free exports
	// stay byte-identical across engines.
	Probes *ProbeReport `json:"probes,omitempty"`
}

type exportedWorkload struct {
	Sends       int64 `json:"sends"`
	Receives    int64 `json:"receives"`
	Handoffs    int64 `json:"handoffs"`
	Disconnects int64 `json:"disconnects"`
}

type exportedNetwork struct {
	AppMessages     int64   `json:"app_messages"`
	CtrlMessages    int64   `json:"ctrl_messages"`
	WirelessHops    int64   `json:"wireless_hops"`
	WiredHops       int64   `json:"wired_hops"`
	ContentionDelay float64 `json:"contention_delay"`
	Retransmissions int64   `json:"retransmissions"`
}

type exportedProtocol struct {
	Name            string           `json:"name"`
	Ntot            int64            `json:"ntot"`
	Basic           int64            `json:"basic"`
	Forced          int64            `json:"forced"`
	Initial         int64            `json:"initial"`
	Causes          map[string]int64 `json:"checkpoint_causes,omitempty"`
	PiggybackBytes  int64            `json:"piggyback_bytes"`
	CtrlMessages    int64            `json:"ctrl_messages"`
	JoinCtrl        int64            `json:"join_ctrl_messages"`
	MHEnergy        float64          `json:"mh_energy"`
	ChannelLoad     float64          `json:"channel_load"`
	WirelessUnits   int64            `json:"storage_wireless_units"`
	WiredUnits      int64            `json:"storage_wired_units"`
	PeakLiveRecords int              `json:"peak_live_records"`
	GCReclaimed     int              `json:"gc_reclaimed_records"`
	Log             *mlog.Counters   `json:"message_log,omitempty"`
}

// ExportJSON writes the run's scalar outcomes as one JSON document. A
// logged run's carries the logging mode and each protocol's log counters
// (message_log); an unlogged run's has neither.
func (r *Result) ExportJSON(w io.Writer) error {
	out := exportedResult{
		Seed:       r.Config.Seed,
		Horizon:    float64(r.Config.Horizon),
		Hosts:      r.Config.Mobile.NumHosts,
		FinalHosts: r.FinalHosts,
		Stations:   r.Config.Mobile.NumMSS,
		TSwitch:    r.Config.Workload.TSwitch,
		PSwitch:    r.Config.Workload.PSwitch,
		PSend:      r.Config.Workload.PSend,
		PComm:      r.Config.Workload.PComm,
		H:          r.Config.Workload.Heterogeneity,

		SnapshotPeriod: float64(r.Config.SnapshotPeriod),
		GCInterval:     float64(r.Config.GCInterval),
		EventsFired:    r.EventsFired,
		Workload: exportedWorkload{
			Sends:       r.Workload.Sends,
			Receives:    r.Workload.Receives,
			Handoffs:    r.Workload.Handoffs,
			Disconnects: r.Workload.Disconnects,
		},
		Network: exportedNetwork{
			AppMessages:     r.Network.AppMessages,
			CtrlMessages:    r.Network.CtrlMessages,
			WirelessHops:    r.Network.WirelessHops,
			WiredHops:       r.Network.WiredHops,
			ContentionDelay: float64(r.Network.ContentionDelay),
			Retransmissions: r.Network.Retransmissions,
		},
	}
	for _, at := range r.Config.JoinTimes {
		out.JoinTimes = append(out.JoinTimes, float64(at))
	}
	out.Probes = r.Probes
	if r.Config.MessageLog != mlog.Off {
		out.MessageLog = r.Config.MessageLog.String()
	}
	for _, pr := range r.Protocols {
		var lg *mlog.Counters
		if pr.MLog != nil {
			lg = &pr.Log
		}
		out.Protocols = append(out.Protocols, exportedProtocol{
			Name:            string(pr.Name),
			Ntot:            pr.Ntot,
			Basic:           pr.Basic,
			Forced:          pr.Forced,
			Initial:         pr.Initial,
			Causes:          pr.Causes,
			PiggybackBytes:  pr.PiggybackBytes,
			CtrlMessages:    pr.CtrlMessages,
			JoinCtrl:        pr.JoinCtrlMessages,
			MHEnergy:        pr.Energy.MHEnergy,
			ChannelLoad:     pr.Energy.ChannelLoad,
			WirelessUnits:   pr.Storage.WirelessUnits,
			WiredUnits:      pr.Storage.WiredUnits,
			PeakLiveRecords: pr.PeakLiveRecords,
			GCReclaimed:     pr.GCReclaimedRecords,
			Log:             lg,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
