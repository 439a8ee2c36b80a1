package core

import (
	"fmt"
	"sync"

	"repro/internal/dnn"
	"repro/internal/obs"
	"repro/internal/units"
)

// Grid evaluation: the consumers that need many predictions — the
// scheduling case study's GPU×network Times matrix, the design-space
// bandwidth sweeps, the serve layer's /predict/batch — all walk a
// (model × network × batch) grid. PredictGrid evaluates such a grid through
// the models' PredictSweep paths, so each (model, network) pair resolves its
// plan once and reuses it across every batch size, instead of paying the
// per-call fingerprint/cache/timer overhead point by point.

// SweepPredictor is a Predictor that can evaluate many batch sizes in one
// pass. KWModel implements it, for measured and IGKW-resolved models alike.
type SweepPredictor interface {
	Predictor
	// PredictSweep predicts every batch size in batches, in input order,
	// bit-identical to per-batch PredictNetwork calls.
	PredictSweep(n *dnn.Network, batches []int) ([]units.Seconds, error)
}

// Grid holds the results of one PredictGrid call. Seconds is indexed
// [model][network][batch], following the input orders; GPUs, Networks and
// Batches record the axes.
type Grid struct {
	GPUs     []string
	Networks []string
	Batches  []int
	Seconds  [][][]units.Seconds
}

// PredictGrid evaluates every (model, network, batch) cell. Each
// (model, network) pair runs as its own goroutine writing an indexed slot,
// so the result is deterministic regardless of scheduling; on error the
// first failing cell in (model, network) order wins, matching what a
// sequential loop would report.
func PredictGrid(models []SweepPredictor, nets []*dnn.Network, batches []int) (*Grid, error) {
	sp := obs.StartSpan("predict-grid")
	defer sp.End()
	metricGrids.Inc()
	metricGridCells.Add(int64(len(models)) * int64(len(nets)) * int64(len(batches)))

	g := &Grid{
		GPUs:     make([]string, len(models)),
		Networks: make([]string, len(nets)),
		Batches:  append([]int(nil), batches...),
		Seconds:  make([][][]units.Seconds, len(models)),
	}
	for i, m := range models {
		g.GPUs[i] = m.GPUName()
		g.Seconds[i] = make([][]units.Seconds, len(nets))
	}
	for j, n := range nets {
		g.Networks[j] = n.Name
	}

	errs := make([]error, len(models)*len(nets))
	var wg sync.WaitGroup
	for i, m := range models {
		for j, n := range nets {
			wg.Add(1)
			go func(i, j int, m SweepPredictor, n *dnn.Network) {
				defer wg.Done()
				out, err := m.PredictSweep(n, g.Batches)
				if err != nil {
					errs[i*len(nets)+j] = fmt.Errorf("core: grid cell (%s, %s): %w", m.GPUName(), n.Name, err)
					return
				}
				g.Seconds[i][j] = out
			}(i, j, m, n)
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return g, nil
}

// sweepUncached is the fallback sweep: one uncached prediction per batch
// size. Models take it when plan compilation fails, so sweep callers see the
// same shape-inference errors PredictNetwork reports.
func sweepUncached(n *dnn.Network, batches []int,
	predict func(*dnn.Network, int) (units.Seconds, error)) ([]units.Seconds, error) {
	out := make([]units.Seconds, len(batches))
	for i, b := range batches {
		v, err := predict(n, b)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}
