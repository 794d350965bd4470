package sim

import (
	"fmt"

	"mobickpt/internal/des"
	"mobickpt/internal/energy"
	"mobickpt/internal/stats"
)

// This file holds the builders of the extension-experiment tables that
// make their own runs (E9, E11, E12, E14, E15, E16, E19 of DESIGN.md; E7
// is in figures.go, E8 and E18 in replay.go). Each is an operating point,
// the values it reads off a run, and a row format; the runs themselves
// and their averaging are protocolMeans'. tables.go names all sixteen.

// protocolMeans is perSeed followed by the aggregation every table but
// the figures uses: row reads a row of values off each protocol of each
// run, and means[p][i][k] is the mean over the seeds, accumulated in seed
// order, of value k of protocol i at point p.
func protocolMeans(points []Config, seeds []uint64, workers int, row func(*Result, *ProtocolResult) ([]float64, error)) ([][][]float64, error) {
	vals, err := perSeed(points, seeds, workers, func(res *Result) ([]float64, error) {
		var flat []float64
		for i := range res.Protocols {
			r, err := row(res, &res.Protocols[i])
			if err != nil {
				return nil, err
			}
			flat = append(flat, r...)
		}
		return flat, nil
	})
	if err != nil {
		return nil, err
	}
	means := make([][][]float64, len(points))
	for p := range points {
		acc := make([]stats.Mean, len(vals[p*len(seeds)]))
		for s := range seeds {
			for k, v := range vals[p*len(seeds)+s] {
				acc[k].Add(v)
			}
		}
		w := len(acc) / len(points[p].Protocols)
		means[p] = make([][]float64, len(points[p].Protocols))
		for k := range acc {
			means[p][k/w] = append(means[p][k/w], acc[k].Mean())
		}
	}
	return means, nil
}

// ratio is num/den, and 0 where den is: a run too short to send a
// message has no per-message cost, not a NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// OverheadTable evaluates E9: for every protocol (including the
// coordinated baselines of §2), the checkpoint count, piggyback volume,
// control messages and derived energy at the default operating point.
func OverheadTable(base Config, seeds []uint64, workers int) (*stats.Table, error) {
	cfg := base
	cfg.Protocols = AllProtocols()
	cfg.Workload.PSwitch = 0.8
	m, err := protocolMeans([]Config{cfg}, seeds, workers, func(_ *Result, pr *ProtocolResult) ([]float64, error) {
		return []float64{float64(pr.Ntot), float64(pr.PiggybackBytes), float64(pr.CtrlMessages),
			pr.Energy.MHEnergy, pr.Energy.ChannelLoad}, nil
	})
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable(
		fmt.Sprintf("Protocol overhead (E9; Tswitch=%.0f, Pswitch=%.2f, snapshot period %.0f)",
			cfg.Workload.TSwitch, cfg.Workload.PSwitch, float64(cfg.SnapshotPeriod)),
		"protocol", "Ntot", "piggyback(B)", "ctrlMsgs", "MH energy", "channel load")
	for i, p := range cfg.Protocols {
		v := m[0][i]
		tab.AddRow(string(p),
			fmt.Sprintf("%.0f", v[0]),
			fmt.Sprintf("%.0f", v[1]),
			fmt.Sprintf("%.0f", v[2]),
			fmt.Sprintf("%.0f", v[3]),
			fmt.Sprintf("%.0f", v[4]))
	}
	return tab, nil
}

// GCTable evaluates E11: with stable-index garbage collection running
// periodically, how much of each index protocol's stable storage is live
// at any time versus the total ever written.
func GCTable(base Config, seeds []uint64, workers int) (*stats.Table, error) {
	cfg := base
	cfg.Workload.PSwitch = 0.8
	cfg.Protocols = []ProtocolName{BCS, QBC}
	cfg.GCInterval = 500
	m, err := protocolMeans([]Config{cfg}, seeds, workers, func(_ *Result, pr *ProtocolResult) ([]float64, error) {
		return []float64{float64(pr.Ntot + pr.Initial), float64(pr.GCReclaimedRecords), float64(pr.PeakLiveRecords)}, nil
	})
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable(
		fmt.Sprintf("Stable-storage garbage collection (E11; GC every %.0f tu, Tswitch=%.0f, Pswitch=%.2f)",
			float64(cfg.GCInterval), cfg.Workload.TSwitch, cfg.Workload.PSwitch),
		"protocol", "checkpoints taken", "reclaimed by GC", "peak live", "peak/total")
	for i, p := range cfg.Protocols {
		total, reclaimed, peak := m[0][i][0], m[0][i][1], m[0][i][2]
		tab.AddRow(string(p),
			fmt.Sprintf("%.0f", total),
			fmt.Sprintf("%.0f", reclaimed),
			fmt.Sprintf("%.0f", peak),
			fmt.Sprintf("%.1f%%", ratio(peak, total)*100))
	}
	return tab, nil
}

// ContentionTable evaluates E12: with the finite-capacity wireless
// channel model (§2.1 point b), how much queueing delay the offered load
// causes per cell, sweeping the communication probability.
func ContentionTable(base Config, seeds []uint64, workers int) (*stats.Table, error) {
	pcomms := []float64{0.05, 0.2, 0.5, 1.0}
	points := make([]Config, len(pcomms))
	for i, pcomm := range pcomms {
		points[i] = base
		points[i].Mobile.Contention = true
		points[i].Workload.PComm = pcomm
		points[i].Protocols = []ProtocolName{QBC}
	}
	m, err := protocolMeans(points, seeds, workers, func(res *Result, _ *ProtocolResult) ([]float64, error) {
		return []float64{float64(res.Network.AppMessages), float64(res.Network.ContentionDelay)}, nil
	})
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable(
		fmt.Sprintf("Wireless channel contention (E12; per-cell FIFO model, Tswitch=%.0f)", base.Workload.TSwitch),
		"PComm", "messages", "total queueing (tu)", "mean per message (tu)")
	for i, pcomm := range pcomms {
		msgs, delay := m[i][0][0], m[i][0][1]
		tab.AddRow(fmt.Sprintf("%.2f", pcomm),
			fmt.Sprintf("%.0f", msgs),
			fmt.Sprintf("%.1f", delay),
			fmt.Sprintf("%.5f", ratio(delay, msgs)))
	}
	return tab, nil
}

// ScalabilityTable evaluates E14: the paper's §2.1 point (f) — per-
// message piggyback bytes and per-host N_tot while sweeping the host
// count (stations scale along, 2 hosts per cell).
func ScalabilityTable(base Config, seeds []uint64, workers int) (*stats.Table, error) {
	hosts := []int{5, 10, 20, 50, 100}
	points := make([]Config, len(hosts))
	for i, n := range hosts {
		points[i] = base
		points[i].Mobile.NumHosts = n
		points[i].Mobile.NumMSS = (n + 1) / 2
		points[i].Workload.PSwitch = 0.8
		points[i].Protocols = PaperProtocols()
	}
	m, err := protocolMeans(points, seeds, workers, func(res *Result, pr *ProtocolResult) ([]float64, error) {
		return []float64{ratio(float64(pr.PiggybackBytes), float64(res.Network.AppMessages)),
			float64(pr.Ntot) / float64(res.Config.Mobile.NumHosts)}, nil
	})
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable(
		fmt.Sprintf("Scalability in the number of hosts (E14; Tswitch=%.0f, Pswitch=0.8)", base.Workload.TSwitch),
		"hosts", "TP piggyback B/msg", "BCS piggyback B/msg", "TP Ntot/host", "BCS Ntot/host", "QBC Ntot/host")
	for i, n := range hosts {
		tp, bcs, qbc := m[i][0], m[i][1], m[i][2] // PaperProtocols' order
		tab.AddRow(fmt.Sprint(n),
			fmt.Sprintf("%.0f", tp[0]),
			fmt.Sprintf("%.0f", bcs[0]),
			fmt.Sprintf("%.1f", tp[1]),
			fmt.Sprintf("%.1f", bcs[1]),
			fmt.Sprintf("%.1f", qbc[1]))
	}
	return tab, nil
}

// ProxyTable evaluates E15: §2.1 point (b)'s client-server structure —
// MH energy with the protocol control state proxied at the MSS versus
// kept at the MH. The saving is exactly the piggyback term.
func ProxyTable(base Config, seeds []uint64, workers int) (*stats.Table, error) {
	model := energy.DefaultModel()
	cfg := base
	cfg.Workload.PSwitch = 0.8
	m, err := protocolMeans([]Config{cfg}, seeds, workers, func(res *Result, pr *ProtocolResult) ([]float64, error) {
		return []float64{pr.Energy.MHEnergy, energy.Assess(model, res.Network, pr.Storage, 0).MHEnergy}, nil
	})
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable(
		"MSS proxying of protocol control information (E15)",
		"protocol", "MH energy (at MH)", "MH energy (proxied)", "saving")
	for i, p := range cfg.Protocols {
		at, px := m[0][i][0], m[0][i][1]
		tab.AddRow(string(p),
			fmt.Sprintf("%.0f", at),
			fmt.Sprintf("%.0f", px),
			fmt.Sprintf("%.1f%%", stats.Gain(at, px)*100))
	}
	return tab, nil
}

// JoinsTable evaluates E16: §2.1 point (f) — the cost of hosts joining a
// running computation, per protocol.
func JoinsTable(base Config, seeds []uint64, workers int) (*stats.Table, error) {
	cfg := base
	cfg.Workload.PSwitch = 0.8
	const joins = 20
	cfg.JoinTimes = nil
	for i := 0; i < joins; i++ {
		cfg.JoinTimes = append(cfg.JoinTimes, cfg.Horizon*des.Time(i+1)/des.Time(joins+1))
	}
	m, err := protocolMeans([]Config{cfg}, seeds, workers, func(res *Result, pr *ProtocolResult) ([]float64, error) {
		return []float64{float64(pr.JoinCtrlMessages), float64(pr.Ntot),
			ratio(float64(pr.PiggybackBytes), float64(res.Network.AppMessages))}, nil
	})
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable(
		fmt.Sprintf("Dynamic membership (E16; %d hosts join a %d-host computation)", joins, cfg.Mobile.NumHosts),
		"protocol", "join ctrl msgs", "Ntot", "final piggyback B/msg")
	for i, p := range cfg.Protocols {
		v := m[0][i]
		tab.AddRow(string(p),
			fmt.Sprintf("%.0f", v[0]),
			fmt.Sprintf("%.0f", v[1]),
			fmt.Sprintf("%.0f", v[2]))
	}
	return tab, nil
}

// CauseTable evaluates E19: N_tot broken down by what triggered each
// checkpoint — basic checkpoints forced by cell switches, basic
// checkpoints forced by disconnections, and protocol-induced forced
// checkpoints. The split shows *why* each protocol pays its N_tot: the
// mobility-driven share is identical work across index protocols, while
// the forced share is where they differ (the paper's §5 comparison).
func CauseTable(base Config, seeds []uint64, workers int) (*stats.Table, error) {
	cfg := base
	cfg.Workload.PSwitch = 0.8
	m, err := protocolMeans([]Config{cfg}, seeds, workers, func(_ *Result, pr *ProtocolResult) ([]float64, error) {
		return []float64{float64(pr.Ntot), float64(pr.Causes["basic-switch"]),
			float64(pr.Causes["basic-disconnect"]), float64(pr.Causes["forced"])}, nil
	})
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable(
		fmt.Sprintf("Checkpoint causes (E19; Tswitch=%.0f, Pswitch=%.2f)",
			cfg.Workload.TSwitch, cfg.Workload.PSwitch),
		"protocol", "Ntot", "basic (switch)", "basic (disconnect)", "forced", "forced share")
	for i, p := range cfg.Protocols {
		ntot, sw, disc, forced := m[0][i][0], m[0][i][1], m[0][i][2], m[0][i][3]
		tab.AddRow(string(p),
			fmt.Sprintf("%.0f", ntot),
			fmt.Sprintf("%.0f", sw),
			fmt.Sprintf("%.0f", disc),
			fmt.Sprintf("%.0f", forced),
			fmt.Sprintf("%.1f%%", ratio(forced, ntot)*100))
	}
	return tab, nil
}
