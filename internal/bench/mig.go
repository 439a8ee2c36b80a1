package bench

import (
	"fmt"

	"repro/internal/gpu"
	"repro/internal/sim"
)

// MIG extension — the paper's second future-work direction ("emerging GPU
// hardware (e.g., multi-instance GPUs)", §9). A MIG slice is a GPU that was
// never measured, defined purely by its specification — exactly the setting
// the inter-GPU model handles. The case study answers a serving question: a
// cloud vendor can carve one A100 into 1×7g, 2×3g, 3×2g or 7×1g instances;
// which slicing maximizes aggregate inference throughput for each workload?

// migBatchGrid is the per-instance batch sizes the search considers.
var migBatchGrid = []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}

// MIGRow is one (network, slicing) design point.
type MIGRow struct {
	Network string
	Profile string
	// Instances is the concurrent instance count of the slicing.
	Instances int
	// BestBatch is the per-instance batch size maximizing throughput
	// (bounded by instance memory).
	BestBatch int
	// LatencyMs is the predicted per-batch latency at that batch size.
	LatencyMs float64
	// Throughput is the aggregate images/second across all instances.
	Throughput float64
}

// MIGResult is the slicing study for a set of networks.
type MIGResult struct {
	GPU  string
	Rows []MIGRow
	// BestProfile maps each network to its throughput-optimal slicing.
	BestProfile map[string]string
}

// migNets are the served workloads: a heavy CNN, a light CNN and a
// transformer.
var migNets = []string{"resnet50", "mobilenet_v2", "bert-base"}

// MIGExtension trains the inter-GPU base on the measured non-A100 GPUs and
// resolves it for every A100 MIG slice.
func MIGExtension(l *Lab) (*MIGResult, error) {
	trainGPUs := []gpu.Spec{gpu.A40, gpu.GTX1080Ti, gpu.TitanRTX, gpu.V100}
	base, err := l.IGKWBase(trainGPUs...)
	if err != nil {
		return nil, err
	}

	res := &MIGResult{GPU: gpu.A100.Name, BestProfile: map[string]string{}}
	for _, name := range migNets {
		net, err := l.Network(name)
		if err != nil {
			return nil, err
		}
		bestThroughput := 0.0
		for _, p := range gpu.A100MIGProfiles() {
			inst := gpu.A100.Instance(p.Name, p.SMFrac, p.MemFrac)
			m, err := base.Resolve(inst)
			if err != nil {
				return nil, err
			}
			row := MIGRow{Network: name, Profile: p.Name, Instances: p.Count}
			dev := sim.NewDefault(inst) // memory check only; timing is predicted
			for _, bs := range migBatchGrid {
				if err := net.Infer(bs); err != nil {
					return nil, err
				}
				if !dev.FitsMemory(net) {
					break // larger batches will not fit either
				}
				t, err := m.PredictNetwork(net, bs)
				if err != nil {
					return nil, err
				}
				if thr := float64(p.Count) * float64(bs) / float64(t); thr > row.Throughput {
					row.Throughput = thr
					row.BestBatch = bs
					row.LatencyMs = float64(t) * 1e3
				}
			}
			if row.BestBatch == 0 {
				// The model does not fit this slice at any batch size.
				row.LatencyMs = 0
			}
			res.Rows = append(res.Rows, row)
			if row.Throughput > bestThroughput {
				bestThroughput = row.Throughput
				res.BestProfile[name] = p.Name
			}
		}
	}
	return res, nil
}

// Render implements the result-rendering convention.
func (r *MIGResult) Render() string {
	rows := [][]string{{"network", "slicing", "instances", "best batch", "latency (ms)", "aggregate img/s"}}
	for _, row := range r.Rows {
		batch := fmt.Sprintf("%d", row.BestBatch)
		lat := fmt.Sprintf("%.1f", row.LatencyMs)
		thr := fmt.Sprintf("%.1f", row.Throughput)
		if row.BestBatch == 0 {
			batch, lat, thr = "—", "OOM", "—"
		}
		rows = append(rows, []string{row.Network, row.Profile,
			fmt.Sprintf("%d", row.Instances), batch, lat, thr})
	}
	for _, n := range migNets {
		rows = append(rows, []string{n + " → best slicing", r.BestProfile[n], "", "", "", ""})
	}
	return renderTable(fmt.Sprintf("MIG extension: throughput-optimal slicing of one %s (IGKW-predicted)", r.GPU), rows)
}
