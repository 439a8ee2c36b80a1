package bench

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/gpu"
)

// OnlineStep is one point of the online-learning trajectory.
type OnlineStep struct {
	// ObservedNetworks is how many networks' measurements the model has
	// seen so far.
	ObservedNetworks int
	// KWError is the held-out error after ingesting them.
	KWError float64
	// Kernels is the model's kernel count (grows as streamed measurements
	// bring kernels unseen in the seed set).
	Kernels int
}

// OnlineLearningResult demonstrates the §5.2 claim that the models suit
// "online learning (updating the model in the deployed environment in
// real-time)": a KW model fitted on a small seed set improves (in trend) as
// deployment measurements stream in. The linear fit is cheap enough to
// rerun on everything observed at each step, so the deployed model is
// always exactly the fit of what it has seen.
type OnlineLearningResult struct {
	GPU   string
	Steps []OnlineStep
}

// onlineChunks is how many streaming batches the non-seed networks arrive in.
const onlineChunks = 4

// OnlineLearning seeds a KW model with a quarter of the training networks
// and streams the remainder in chunks, refitting on the seed plus every
// chunk streamed so far and evaluating the fixed held-out test set after
// each one. The last step has observed every training network, so its
// model is the one FitKW fits on the whole training split.
func OnlineLearning(l *Lab, g gpu.Spec) (*OnlineLearningResult, error) {
	ds, err := l.Dataset(g)
	if err != nil {
		return nil, err
	}
	train, test := l.Split(ds)

	names := train.NetworkNames()
	sort.Strings(names)
	seedCount := len(names) / 4
	if seedCount < 2 {
		seedCount = 2
	}
	observed := map[string]bool{}
	for _, n := range names[:seedCount] {
		observed[n] = true
	}

	res := &OnlineLearningResult{GPU: g.Name}
	// step refits on every network observed so far and evaluates the fixed
	// held-out test set.
	step := func() error {
		kw, err := core.FitKW(train.FilterNetworks(observed), g.Name, TrainBatch)
		if err != nil {
			return err
		}
		evals, err := l.evalOnTest(kw, test, dnn.TaskImageClassification)
		if err != nil {
			return err
		}
		res.Steps = append(res.Steps, OnlineStep{
			ObservedNetworks: len(observed), KWError: core.MeanRelError(evals), Kernels: kw.KernelCount(),
		})
		return nil
	}
	if err := step(); err != nil {
		return nil, err
	}

	rest := names[seedCount:]
	chunk := (len(rest) + onlineChunks - 1) / onlineChunks
	for start := 0; start < len(rest); start += chunk {
		for _, n := range rest[start:min(start+chunk, len(rest))] {
			observed[n] = true
		}
		if err := step(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Render implements the result-rendering convention.
func (r *OnlineLearningResult) Render() string {
	rows := [][]string{{"networks observed", "kernels modeled", "held-out KW error"}}
	for _, s := range r.Steps {
		rows = append(rows, []string{fmt.Sprintf("%d", s.ObservedNetworks),
			fmt.Sprintf("%d", s.Kernels), fmt.Sprintf("%.3f", s.KWError)})
	}
	return renderTable(fmt.Sprintf("Online learning: streaming measurements into a deployed KW model (%s)", r.GPU), rows)
}
