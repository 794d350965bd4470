package sim

import (
	"fmt"

	"mobickpt/internal/stats"
)

// FigureSpec encodes one of the paper's figures: N_tot as a function of
// T_switch under fixed P_s, P_switch and heterogeneity H.
type FigureSpec struct {
	ID      int
	Title   string
	PSend   float64
	PSwitch float64
	H       float64
	// TSwitch values swept along the x axis (the paper varies the mean
	// permanence time of the *slowest* hosts from 100 to 10000).
	TSwitch []float64
}

// paperTSwitch is the sweep used by every figure.
func paperTSwitch() []float64 {
	return []float64{100, 200, 500, 1000, 2000, 5000, 10000}
}

// PaperFigures returns the six figures of §5.2.
func PaperFigures() []FigureSpec {
	mk := func(id int, pswitch, h float64) FigureSpec {
		return FigureSpec{
			ID:      id,
			Title:   fmt.Sprintf("Figure %d: Ntot vs Tswitch (Ps=0.4, Pswitch=%.1f, H=%.0f%%)", id, pswitch, h*100),
			PSend:   0.4,
			PSwitch: pswitch,
			H:       h,
			TSwitch: paperTSwitch(),
		}
	}
	return []FigureSpec{
		mk(1, 1.0, 0),
		mk(2, 0.8, 0),
		mk(3, 1.0, 0.50),
		mk(4, 0.8, 0.50),
		mk(5, 1.0, 0.30),
		mk(6, 0.8, 0.30),
	}
}

// Apply overlays the figure's parameters onto a base configuration for
// one T_switch point.
func (f FigureSpec) Apply(base Config, tswitch float64) Config {
	c := base
	c.Workload.PSend = f.PSend
	c.Workload.PSwitch = f.PSwitch
	c.Workload.Heterogeneity = f.H
	c.Workload.TSwitch = tswitch
	return c
}

// Points expands the figure's T_switch sweep into one Config per point:
// what SweepParallel takes, and the sums it returns are what Gains and the
// figure's table and chart are computed from.
func (f FigureSpec) Points(base Config) []Config {
	pts := make([]Config, len(f.TSwitch))
	for i, ts := range f.TSwitch {
		pts[i] = f.Apply(base, ts)
	}
	return pts
}

// sweepFigures is the one sweep behind every figure table, chart and gain:
// every (figure, point, seed) job rides a single worker pool, which keeps
// every core busy across figure boundaries instead of draining per figure.
// It returns the figures' sums in the order of specs, each one Summary
// per T_switch point.
func sweepFigures(specs []FigureSpec, base Config, seeds []uint64, workers int) ([][]*Summary, error) {
	var all []Config
	for _, f := range specs {
		if len(f.TSwitch) == 0 {
			return nil, fmt.Errorf("sim: figure %d sweeps no T_switch value", f.ID)
		}
		all = append(all, f.Points(base)...)
	}
	sums, err := SweepParallel(all, seeds, workers)
	if err != nil {
		return nil, err
	}
	byFigure := make([][]*Summary, len(specs))
	for i, f := range specs {
		byFigure[i], sums = sums[:len(f.TSwitch)], sums[len(f.TSwitch):]
	}
	return byFigure, nil
}

// SweepFigures evaluates several figures in one shot on one worker pool
// and returns their tables in the order of specs.
func SweepFigures(specs []FigureSpec, base Config, seeds []uint64, workers int) ([]*stats.Table, error) {
	sums, err := sweepFigures(specs, base, seeds, workers)
	if err != nil {
		return nil, err
	}
	tabs := make([]*stats.Table, len(specs))
	for i, f := range specs {
		tabs[i] = figureTable(f, sums[i])
	}
	return tabs, nil
}

// figureTable renders the sums of the figure's sweep (SweepParallel over
// f.Points) as a table with one row per point and one N_tot column per
// protocol (mean across seeds, as in the paper).
func figureTable(f FigureSpec, sums []*Summary) *stats.Table {
	cols := []string{"Tswitch"}
	for _, p := range sums[0].Protocols {
		cols = append(cols, string(p.Name))
	}
	tab := stats.NewTable(f.Title, cols...)
	for i, ts := range f.TSwitch {
		vals := make([]float64, len(sums[i].Protocols))
		for j := range vals {
			vals[j] = sums[i].Protocols[j].Ntot.Mean()
		}
		tab.AddFloatRow(fmt.Sprintf("%.0f", ts), vals...)
	}
	return tab
}

// figurePlot renders the same sums as the paper-style log-log ASCII
// chart.
func figurePlot(f FigureSpec, sums []*Summary) (*stats.Plot, error) {
	p := stats.NewPlot(f.Title + "  (log-log)")
	for j, pr := range sums[0].Protocols {
		ys := make([]float64, len(sums))
		for i := range sums {
			ys[i] = sums[i].Protocols[j].Ntot.Mean()
		}
		if err := p.Add(string(pr.Name), pr.Name[0], f.TSwitch, ys); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// GainReport holds the §5.2 headline comparisons (experiment E7).
type GainReport struct {
	// TPOverIndexMax is the largest gain of the best index protocol over
	// TP across the sweep: (TP - min(BCS,QBC)) / TP. The paper reports
	// "up to 90%" at T_switch = 10000.
	TPOverIndexMax float64
	// TPOverIndexAt is the T_switch where it occurred.
	TPOverIndexAt float64
	// QBCOverBCSMax is the largest gain of QBC over BCS: (BCS-QBC)/BCS.
	// The paper reports up to 15% (homogeneous, P_switch = 0.8) and up to
	// 23% (H = 30%, P_switch = 0.8).
	QBCOverBCSMax float64
	// QBCOverBCSAt is the T_switch where it occurred.
	QBCOverBCSAt float64
}

// Gains extracts the headline gains from the sums of the figure's sweep,
// which must include TP, BCS and QBC.
func Gains(f FigureSpec, sums []*Summary) (GainReport, error) {
	var rep GainReport
	for p, ts := range f.TSwitch {
		sum := sums[p]
		tp, bcs, qbc := sum.Protocol(TP), sum.Protocol(BCS), sum.Protocol(QBC)
		if tp == nil || bcs == nil || qbc == nil {
			return rep, fmt.Errorf("sim: Gains requires TP, BCS and QBC in the config")
		}
		best := bcs.Ntot.Mean()
		if q := qbc.Ntot.Mean(); q < best {
			best = q
		}
		if g := stats.Gain(tp.Ntot.Mean(), best); g > rep.TPOverIndexMax {
			rep.TPOverIndexMax, rep.TPOverIndexAt = g, ts
		}
		if g := stats.Gain(bcs.Ntot.Mean(), qbc.Ntot.Mean()); g > rep.QBCOverBCSMax {
			rep.QBCOverBCSMax, rep.QBCOverBCSAt = g, ts
		}
	}
	return rep, nil
}

// GainsTable evaluates E7 from the sums of the figures' sweeps: per
// figure, the maximum gain of the index protocols over TP and of QBC over
// BCS, with the T_switch at which each occurs (paper: up to 90% and up to
// 15%/23%).
func GainsTable(specs []FigureSpec, sums [][]*Summary) (*stats.Table, error) {
	tab := stats.NewTable("Headline gains (E7; paper: index-over-TP up to 90%, QBC-over-BCS up to 15%/23%)",
		"figure", "index over TP", "at Tswitch", "QBC over BCS", "at Tswitch")
	for i, spec := range specs {
		rep, err := Gains(spec, sums[i])
		if err != nil {
			return nil, err
		}
		tab.AddRow(
			fmt.Sprintf("Fig %d (Pswitch=%.1f H=%.0f%%)", spec.ID, spec.PSwitch, spec.H*100),
			fmt.Sprintf("%.1f%%", rep.TPOverIndexMax*100),
			fmt.Sprintf("%.0f", rep.TPOverIndexAt),
			fmt.Sprintf("%.1f%%", rep.QBCOverBCSMax*100),
			fmt.Sprintf("%.0f", rep.QBCOverBCSAt),
		)
	}
	return tab, nil
}
