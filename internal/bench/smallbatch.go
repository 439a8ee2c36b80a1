package bench

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/gpu"
)

// SmallBatchRow is one batch size's error comparison.
type SmallBatchRow struct {
	BatchSize int
	// RawError is the plain KW model's error at this batch size.
	RawError float64
	// CorrectedError is the KW+overhead model's error.
	CorrectedError float64
}

// SmallBatchResult evaluates the §7 limitation and its fix: the plain KW
// model degrades away from the training batch size (CPU overheads and
// pipelining dominate small workloads); the learned residual correction
// recovers most of the loss.
type SmallBatchResult struct {
	GPU  string
	Rows []SmallBatchRow
}

// SmallBatch fits the KW model at the training batch size, learns the
// overhead correction from the training networks' multi-batch records, and
// compares raw vs corrected errors on held-out networks at every recorded
// batch size.
func SmallBatch(l *Lab, g gpu.Spec) (*SmallBatchResult, error) {
	ds, err := l.Dataset(g)
	if err != nil {
		return nil, err
	}
	train, test := l.Split(ds)
	kw, err := l.KW(g)
	if err != nil {
		return nil, err
	}
	sb, err := core.FitSmallBatch(kw, train, l.Network)
	if err != nil {
		return nil, err
	}

	batches := map[int]bool{}
	for _, r := range test.Networks {
		if r.GPU == g.Name {
			batches[r.BatchSize] = true
		}
	}
	var sizes []int
	for bs := range batches {
		sizes = append(sizes, bs)
	}
	sort.Ints(sizes)

	res := &SmallBatchResult{GPU: g.Name}
	for _, bs := range sizes {
		raw, err := l.Evaluate(kw, test, dnn.TaskImageClassification, bs)
		if err != nil {
			return nil, err
		}
		corrected, err := l.Evaluate(sb, test, dnn.TaskImageClassification, bs)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, SmallBatchRow{
			BatchSize:      bs,
			RawError:       core.MeanRelError(raw),
			CorrectedError: core.MeanRelError(corrected),
		})
	}
	return res, nil
}

// Render implements the result-rendering convention.
func (r *SmallBatchResult) Render() string {
	rows := [][]string{{"batch size", "KW error", "KW+overhead error"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{fmt.Sprintf("%d", row.BatchSize),
			fmt.Sprintf("%.3f", row.RawError), fmt.Sprintf("%.3f", row.CorrectedError)})
	}
	return renderTable(fmt.Sprintf("Small-batch correction: CPU/launch overhead model (%s)", r.GPU), rows)
}
