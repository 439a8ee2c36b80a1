package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/disagg"
	"repro/internal/dnn"
	"repro/internal/gpu"
	"repro/internal/sched"
	"repro/internal/units"
)

// dseTrainGPUs are the measured devices the design-space explorations learn
// from (everything in the main set except the TITAN RTX being customized).
func dseTrainGPUs() []gpu.Spec {
	return []gpu.Spec{gpu.A100, gpu.A40, gpu.GTX1080Ti, gpu.V100}
}

// --------------------------------------------------- Figures 15 and 16

// BandwidthPoint is one design point of the bandwidth sweep.
type BandwidthPoint struct {
	BandwidthGBps float64
	PredictedMs   float64
}

// BandwidthDSEResult is case study 1: predicted execution time of a network
// on a TITAN RTX with modified memory bandwidth.
type BandwidthDSEResult struct {
	Figure  string
	Network string
	Batch   int
	Points  []BandwidthPoint
	// IdealLowGBps / IdealHighGBps bound the "ideal bandwidth range": below
	// the low bound the network loses > 10 % performance versus the maximum
	// bandwidth; above the high bound further bandwidth buys < 3 %.
	IdealLowGBps, IdealHighGBps float64
	// NativeGBps is the actual TITAN RTX bandwidth (672 GB/s), the red line
	// of the figures.
	NativeGBps float64
}

// bandwidthDSE runs the sweep for one network.
func bandwidthDSE(l *Lab, figure, network string, batch int) (*BandwidthDSEResult, error) {
	base, err := l.IGKWBase(dseTrainGPUs()...)
	if err != nil {
		return nil, err
	}
	net, err := l.Network(network)
	if err != nil {
		return nil, err
	}

	res := &BandwidthDSEResult{Figure: figure, Network: network, Batch: batch,
		NativeGBps: gpu.TitanRTX.MemBWGBps}

	// Resolve one model per candidate bandwidth, then evaluate the whole
	// (model × network × batch) sweep through core.PredictGrid: each model
	// compiles its plan once and every point comes from the same grid call.
	var models []core.SweepPredictor
	var bws []float64
	for bw := 200.0; bw <= 1400.0; bw += 100 {
		m, err := base.Resolve(gpu.TitanRTX.WithBandwidth(bw))
		if err != nil {
			return nil, err
		}
		models = append(models, m)
		bws = append(bws, bw)
	}
	grid, err := core.PredictGrid(models, []*dnn.Network{net}, []int{batch})
	if err != nil {
		return nil, err
	}
	var times []float64
	for i, bw := range bws {
		t := grid.Seconds[i][0][0]
		res.Points = append(res.Points, BandwidthPoint{BandwidthGBps: bw, PredictedMs: t.Micros() / 1e3})
		times = append(times, float64(t))
	}

	// The "ideal range" is read off the knee of the curve: its lower bound
	// is where the marginal gain of another 100 GB/s falls below 10 %, the
	// upper bound where it falls below 5 % — past that, extra bandwidth is
	// wasted money (the case study's procurement question).
	res.IdealLowGBps, res.IdealHighGBps = -1, -1
	for i := 1; i < len(times); i++ {
		gain := (times[i-1] - times[i]) / times[i-1]
		if res.IdealLowGBps < 0 && gain < 0.10 {
			res.IdealLowGBps = res.Points[i-1].BandwidthGBps
		}
		if res.IdealHighGBps < 0 && gain < 0.05 {
			res.IdealHighGBps = res.Points[i-1].BandwidthGBps
		}
	}
	if res.IdealLowGBps < 0 {
		res.IdealLowGBps = res.Points[len(res.Points)-1].BandwidthGBps
	}
	if res.IdealHighGBps < 0 {
		res.IdealHighGBps = res.Points[len(res.Points)-1].BandwidthGBps
	}
	return res, nil
}

// Figure15 sweeps ResNet-50 on a bandwidth-modified TITAN RTX (paper: the
// ideal range is 600–800 GB/s, containing the native 672 GB/s).
func Figure15(l *Lab) (*BandwidthDSEResult, error) {
	return bandwidthDSE(l, "Figure 15", "resnet50", TrainBatch)
}

// Figure16 sweeps DenseNet-169 (paper: less bandwidth-sensitive, ideal range
// 500–700 GB/s — a customer could order cheaper memory).
func Figure16(l *Lab) (*BandwidthDSEResult, error) {
	return bandwidthDSE(l, "Figure 16", "densenet169", TrainBatch)
}

// Render implements the result-rendering convention.
func (r *BandwidthDSEResult) Render() string {
	rows := [][]string{{"bandwidth (GB/s)", "predicted time (ms)"}}
	for _, p := range r.Points {
		mark := ""
		if bwi := int(p.BandwidthGBps); bwi == 600 || bwi == 700 {
			mark = "  ← native 672 GB/s region"
		}
		rows = append(rows, []string{fmt.Sprintf("%.0f", p.BandwidthGBps),
			fmt.Sprintf("%.1f%s", p.PredictedMs, mark)})
	}
	rows = append(rows, []string{"ideal range",
		fmt.Sprintf("%.0f–%.0f GB/s", r.IdealLowGBps, r.IdealHighGBps)})
	return renderTable(fmt.Sprintf("%s: predicted time of %s on TITAN RTX with modified bandwidth (BS=%d)",
		r.Figure, r.Network, r.Batch), rows)
}

// ---------------------------------------------------------------- Figure 17

// Figure17Batch is the serving batch size of the disaggregated-memory case
// study; small batches make parameter traffic the bottleneck, which is the
// regime the study explores.
const Figure17Batch = 64

// figure17Nets matches the paper's x-axis.
var figure17Nets = []string{"resnet50", "resnet77", "densenet121", "densenet161", "shufflenet_v1"}

// figure17Bandwidths are the swept link bandwidths in GB/s (16 is the
// normalization baseline).
var figure17Bandwidths = []float64{16, 32, 64, 128, 256, 512}

// Figure17Series is one network's speedup curve.
type Figure17Series struct {
	Network  string
	Speedups []float64 // aligned with figure17Bandwidths
	// RequiredGBps is the smallest swept bandwidth within 5 % of the
	// maximum-bandwidth performance — "the minimum required network
	// bandwidth" of the case study.
	RequiredGBps float64
}

// Figure17Result is case study 2: speedup over a 16 GB/s link for networks
// on a memory-disaggregated GPU system.
type Figure17Result struct {
	GPU    string
	Series []Figure17Series
}

// Figure17 connects the KW model (per-layer times on TITAN RTX) to the
// event-driven disaggregated-memory simulation and sweeps the link
// bandwidth.
func Figure17(l *Lab) (*Figure17Result, error) {
	g := gpu.TitanRTX
	kw, err := l.KW(g)
	if err != nil {
		return nil, err
	}

	res := &Figure17Result{GPU: g.Name}
	for _, name := range figure17Nets {
		net, err := l.Network(name)
		if err != nil {
			return nil, err
		}
		jobs, err := disagg.JobsFromNetwork(net, Figure17Batch, kw.PredictLayerTime)
		if err != nil {
			return nil, err
		}
		results, err := disagg.Sweep(jobs, disagg.Config{LinkLatencyUS: 2}, figure17Bandwidths)
		if err != nil {
			return nil, err
		}
		s := Figure17Series{Network: name, Speedups: disagg.Speedups(results)}
		best := results[len(results)-1].TotalSeconds
		for i, r := range results {
			if r.TotalSeconds <= best*1.05 {
				s.RequiredGBps = figure17Bandwidths[i]
				break
			}
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}

// Render implements the result-rendering convention.
func (r *Figure17Result) Render() string {
	header := []string{"network"}
	for _, bw := range figure17Bandwidths {
		header = append(header, fmt.Sprintf("%.0f GB/s", bw))
	}
	header = append(header, "required")
	rows := [][]string{header}
	for _, s := range r.Series {
		row := []string{s.Network}
		for _, sp := range s.Speedups {
			row = append(row, fmt.Sprintf("%.2f", sp))
		}
		row = append(row, fmt.Sprintf("%.0f GB/s", s.RequiredGBps))
		rows = append(rows, row)
	}
	return renderTable(fmt.Sprintf("Figure 17: speedup over 16 GB/s link, memory-disaggregated %s (BS=%d)",
		r.GPU, Figure17Batch), rows)
}

// ---------------------------------------------------------------- Figure 18

// figure18Nets matches the paper's x-axis.
var figure18Nets = []string{"resnet50", "resnet77", "densenet161", "densenet169", "densenet121", "shufflenet_v1"}

// schedGPUs are the two cloud devices of case study 3.
func schedGPUs() []gpu.Spec { return []gpu.Spec{gpu.A40, gpu.TitanRTX} }

// predictSchedTimes issues every (network, GPU) prediction of the scheduling
// case studies through core.PredictGrid — the query pattern a scheduler
// serving many placement decisions generates, evaluated one plan sweep per
// (model, network) cell — on the lab's KW model of each scheduling GPU, and
// returns seconds indexed by network then GPU, so assembly stays
// deterministic.
func predictSchedTimes(l *Lab, names []string) ([][]units.Seconds, error) {
	gpus := schedGPUs()
	// One collection pass warms both GPUs' datasets for their fits.
	if _, err := l.Dataset(gpus...); err != nil {
		return nil, err
	}
	models := make([]core.SweepPredictor, len(gpus))
	for j, g := range gpus {
		kw, err := l.KW(g)
		if err != nil {
			return nil, err
		}
		models[j] = kw
	}
	nets := make([]*dnn.Network, len(names))
	for i, name := range names {
		net, err := l.Network(name)
		if err != nil {
			return nil, err
		}
		nets[i] = net
	}
	grid, err := core.PredictGrid(models, nets, []int{TrainBatch})
	if err != nil {
		return nil, err
	}
	out := make([][]units.Seconds, len(names))
	for i := range names {
		out[i] = make([]units.Seconds, len(gpus))
		for j := range gpus {
			out[i][j] = grid.Seconds[j][i][0]
		}
	}
	return out, nil
}

// Figure18Row is one network's measured/predicted pair on both GPUs.
type Figure18Row struct {
	Network                 string
	MeasuredMs, PredictedMs map[string]float64
	ChosenGPU, FasterGPU    string
	CorrectChoice           bool
}

// Figure18Result: the model picks the faster GPU for every network.
type Figure18Result struct {
	Rows    []Figure18Row
	Correct int
}

// Figure18 compares measured and KW-predicted times on A40 and TITAN RTX and
// checks the per-network GPU choice. The (network, GPU) prediction queries
// run concurrently; row assembly is serial, so the result is identical to
// the sequential computation.
func Figure18(l *Lab) (*Figure18Result, error) {
	meas, err := l.Sweep(figure18Nets, schedGPUs(), []int{TrainBatch})
	if err != nil {
		return nil, err
	}
	preds, err := predictSchedTimes(l, figure18Nets)
	if err != nil {
		return nil, err
	}

	res := &Figure18Result{}
	for i, name := range figure18Nets {
		row := Figure18Row{Network: name,
			MeasuredMs: map[string]float64{}, PredictedMs: map[string]float64{}}
		for j, g := range schedGPUs() {
			row.PredictedMs[g.Name] = float64(preds[i][j]) * 1e3
			for _, r := range meas.Networks {
				if r.Network == name && r.GPU == g.Name && r.BatchSize == TrainBatch {
					row.MeasuredMs[g.Name] = float64(r.E2ESeconds) * 1e3
				}
			}
			if row.MeasuredMs[g.Name] == 0 {
				return nil, fmt.Errorf("bench: figure 18: no measurement for %s on %s", name, g.Name)
			}
		}
		row.ChosenGPU = argminKey(row.PredictedMs)
		row.FasterGPU = argminKey(row.MeasuredMs)
		row.CorrectChoice = row.ChosenGPU == row.FasterGPU
		if row.CorrectChoice {
			res.Correct++
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// argminKey returns the key with the smallest value (ties: lexicographically
// first, for determinism).
func argminKey(m map[string]float64) string {
	best := ""
	for k, v := range m {
		if best == "" || v < m[best] {
			best = k
			continue
		}
		if v > m[best] {
			continue
		}
		if k < best { // values tie: lexicographic winner
			best = k
		}
	}
	return best
}

// Render implements the result-rendering convention.
func (r *Figure18Result) Render() string {
	rows := [][]string{{"network", "A40 meas", "A40 pred", "TITAN meas", "TITAN pred", "chosen", "correct"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Network,
			fmt.Sprintf("%.1f", row.MeasuredMs["A40"]), fmt.Sprintf("%.1f", row.PredictedMs["A40"]),
			fmt.Sprintf("%.1f", row.MeasuredMs["TITAN RTX"]), fmt.Sprintf("%.1f", row.PredictedMs["TITAN RTX"]),
			row.ChosenGPU, fmt.Sprintf("%t", row.CorrectChoice)})
	}
	rows = append(rows, []string{"correct choices",
		fmt.Sprintf("%d/%d", r.Correct, len(r.Rows)), "", "", "", "", ""})
	return renderTable(fmt.Sprintf("Figure 18: measured vs predicted time (ms) on A40 and TITAN RTX (BS=%d)", TrainBatch), rows)
}

// ---------------------------------------------------------------- Figure 19

// figure19Nets is the paper's nine-network queue.
var figure19Nets = []string{
	"resnet44", "resnet50", "resnet62", "resnet77",
	"densenet121", "densenet161", "densenet169", "densenet201",
	"shufflenet_v1",
}

// Figure19Result: scheduling the queue with predicted times matches the
// oracle (measured-time) schedule.
type Figure19Result struct {
	Networks []string
	// GPUs names the GPU ids of Assignment.
	GPUs []string
	// Assignment is the predicted-time brute-force schedule.
	Assignment *sched.DenseAssignment
	// PredictedMakespan is that schedule's makespan under predicted times;
	// AchievedMakespan re-costs it with measured times; OracleMakespan is
	// the best achievable with measured times.
	PredictedMakespan, AchievedMakespan, OracleMakespan float64
	// MatchesOracle reports whether the model's schedule achieves the
	// oracle makespan.
	MatchesOracle bool
}

// Figure19 brute-force schedules the queue on A40 + TITAN RTX using
// predicted times and compares with the measured-time oracle. As in Figure18,
// the per-(network, GPU) queries run concurrently.
func Figure19(l *Lab) (*Figure19Result, error) {
	meas, err := l.Sweep(figure19Nets, schedGPUs(), []int{TrainBatch})
	if err != nil {
		return nil, err
	}
	preds, err := predictSchedTimes(l, figure19Nets)
	if err != nil {
		return nil, err
	}

	// Both tables list the GPUs in schedGPUs() order, which is also their
	// sorted name order, so brute-force ties keep breaking alphabetically.
	gpus := make([]string, len(schedGPUs()))
	for j, g := range schedGPUs() {
		gpus[j] = g.Name
	}
	pred, err := sched.NewDenseTimes(gpus, len(figure19Nets))
	if err != nil {
		return nil, err
	}
	actual, err := sched.NewDenseTimes(gpus, len(figure19Nets))
	if err != nil {
		return nil, err
	}
	for i, name := range figure19Nets {
		for j, g := range gpus {
			pred.Row(j)[i] = float64(preds[i][j])
			for _, r := range meas.Networks {
				if r.Network == name && r.GPU == g && r.BatchSize == TrainBatch {
					actual.Row(j)[i] = float64(r.E2ESeconds)
				}
			}
		}
	}

	// Auto takes the exhaustive search here (9 tasks × 2 GPUs is well within
	// the brute-force limits) and would degrade to local search on a larger
	// queue instead of failing.
	plan, _, err := sched.Auto(pred)
	if err != nil {
		return nil, err
	}
	achieved, err := sched.MakespanOf(plan.GPUOf, gpus, actual)
	if err != nil {
		return nil, err
	}
	oracle, _, err := sched.Auto(actual)
	if err != nil {
		return nil, err
	}
	const tol = 1.005 // measured-time ties within 0.5 % count as matching
	return &Figure19Result{
		Networks:          figure19Nets,
		GPUs:              gpus,
		Assignment:        plan,
		PredictedMakespan: plan.Makespan,
		AchievedMakespan:  achieved,
		OracleMakespan:    oracle.Makespan,
		MatchesOracle:     achieved <= oracle.Makespan*tol,
	}, nil
}

// Render implements the result-rendering convention.
func (r *Figure19Result) Render() string {
	rows := [][]string{{"network", "assigned GPU"}}
	for i, n := range r.Networks {
		rows = append(rows, []string{n, r.GPUs[r.Assignment.GPUOf[i]]})
	}
	rows = append(rows,
		[]string{"predicted makespan", fmt.Sprintf("%.1f ms", r.PredictedMakespan*1e3)},
		[]string{"achieved makespan (measured)", fmt.Sprintf("%.1f ms", r.AchievedMakespan*1e3)},
		[]string{"oracle makespan", fmt.Sprintf("%.1f ms", r.OracleMakespan*1e3)},
		[]string{"matches oracle", fmt.Sprintf("%t", r.MatchesOracle)})
	return renderTable("Figure 19: scheduling a queue of networks on A40 + TITAN RTX with predicted times", rows)
}
