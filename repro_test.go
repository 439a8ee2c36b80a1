package repro

import (
	"math"
	"path/filepath"
	"testing"

	"repro/internal/units"
)

// collectSmall builds a compact dataset through the public facade.
func collectSmall(t testing.TB, gpus []GPU) *Dataset {
	t.Helper()
	var nets []*Network
	for i, n := range Zoo() {
		if i%12 == 0 {
			nets = append(nets, n)
		}
	}
	opt := DefaultCollectOptions()
	opt.Batches = 3
	opt.Warmup = 1
	ds, _, err := Collect(nets, gpus, opt)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestFacadeWorkflow(t *testing.T) {
	// The README/Figure-10 workflow, end to end through the public API.
	ds := collectSmall(t, []GPU{A100})
	train, test := ds.SplitByNetwork(0.15, 1)
	if len(train.NetworkNames()) == 0 || len(test.NetworkNames()) == 0 {
		t.Fatal("empty split")
	}

	kw, err := TrainKW(train, "A100")
	if err != nil {
		t.Fatal(err)
	}
	e2e, err := TrainE2E(train, "A100")
	if err != nil {
		t.Fatal(err)
	}
	lw, err := TrainLW(train, "A100")
	if err != nil {
		t.Fatal(err)
	}

	net, err := NetworkByName("resnet50")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Profile(net, TrainBatchSize, A100)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Predictor{e2e, lw, kw} {
		pred, err := m.PredictNetwork(net, TrainBatchSize)
		if err != nil {
			t.Fatal(err)
		}
		if pred <= 0 {
			t.Fatalf("%s predicted %v", m.Name(), pred)
		}
		// Even the coarse models stay within a small factor on a
		// well-represented network.
		if ratio := float64(pred) / tr.E2ETime; ratio < 0.2 || ratio > 5 {
			t.Fatalf("%s ratio = %v", m.Name(), ratio)
		}
	}
}

func TestFacadeIGKWAndDSE(t *testing.T) {
	trainGPUs := []GPU{A100, A40, GTX1080Ti}
	ds := collectSmall(t, trainGPUs)
	base, err := TrainIGKWBase(ds, trainGPUs)
	if err != nil {
		t.Fatal(err)
	}
	net, err := NetworkByName("resnet50")
	if err != nil {
		t.Fatal(err)
	}
	var prev units.Seconds
	for _, bw := range []float64{400, 800, 1200} {
		m, err := base.Resolve(TitanRTX.WithBandwidth(bw))
		if err != nil {
			t.Fatal(err)
		}
		pred, err := m.PredictNetwork(net, TrainBatchSize)
		if err != nil {
			t.Fatal(err)
		}
		if prev != 0 && pred >= prev {
			t.Fatalf("more bandwidth should not be slower: %v then %v", prev, pred)
		}
		prev = pred
	}
	// Hypothetical GPUs work the same way.
	hypo := HypotheticalGPU("future", 2500, 80, 60)
	m, err := base.Resolve(hypo)
	if err != nil {
		t.Fatal(err)
	}
	if p, err := m.PredictNetwork(net, TrainBatchSize); err != nil || p <= 0 {
		t.Fatalf("hypothetical prediction = %v, %v", p, err)
	}
}

func TestFacadeDisagg(t *testing.T) {
	ds := collectSmall(t, []GPU{TitanRTX})
	kw, err := TrainKW(ds, "TITAN RTX")
	if err != nil {
		t.Fatal(err)
	}
	net, err := NetworkByName("resnet50")
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := DisaggJobsFromNetwork(net, 64, kw)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != len(net.Layers) {
		t.Fatalf("jobs = %d, layers = %d", len(jobs), len(net.Layers))
	}
	results, err := SweepDisagg(jobs, DisaggConfig{LinkLatencyUS: 2}, []float64{16, 256})
	if err != nil {
		t.Fatal(err)
	}
	sp := DisaggSpeedups(results)
	if sp[1] < 1 {
		t.Fatalf("speedups = %v", sp)
	}
}

// facadeTable builds a two-GPU schedule table through the facade.
func facadeTable(t *testing.T, a40, titan []float64) *ScheduleTimes {
	t.Helper()
	tm, err := NewScheduleTimes([]string{"A40", "TITAN RTX"}, len(a40))
	if err != nil {
		t.Fatal(err)
	}
	copy(tm.Row(0), a40)
	copy(tm.Row(1), titan)
	return tm
}

func TestFacadeScheduling(t *testing.T) {
	tm := facadeTable(t, []float64{1, 4}, []float64{2, 2})
	choice, err := ChooseGPU(tm)
	if err != nil {
		t.Fatal(err)
	}
	if tm.GPUs()[choice[0]] != "A40" || tm.GPUs()[choice[1]] != "TITAN RTX" {
		t.Fatalf("choice = %v", choice)
	}
	plan, err := ScheduleBruteForce(tm)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Makespan != 2 {
		t.Fatalf("makespan = %v", plan.Makespan)
	}
	lpt, err := ScheduleList(tm)
	if err != nil {
		t.Fatal(err)
	}
	if lpt.Makespan < plan.Makespan {
		t.Fatal("LPT beat brute force")
	}
	span, err := MakespanOf(plan.GPUOf, tm.GPUs(), tm)
	if err != nil || math.Abs(span-plan.Makespan) > 1e-12 {
		t.Fatalf("MakespanOf = %v, %v", span, err)
	}
	inOrder, err := ScheduleGreedyInOrder(tm)
	if err != nil || inOrder.Makespan < plan.Makespan {
		t.Fatalf("GreedyInOrder = %v, %v", inOrder.Makespan, err)
	}
	auto, exact, err := ScheduleAuto(tm)
	if err != nil || !exact || auto.Makespan != plan.Makespan {
		t.Fatalf("ScheduleAuto = %v (exact %v), %v", auto, exact, err)
	}
}

func TestFacadeClusterScheduling(t *testing.T) {
	tm := facadeTable(t, []float64{1, 4, 3}, []float64{2, 2, 5})
	lb, err := ScheduleLowerBound(tm)
	if err != nil || lb <= 0 {
		t.Fatalf("lower bound = %v, %v", lb, err)
	}
	list, err := ScheduleList(tm)
	if err != nil || list.Makespan < lb {
		t.Fatalf("list = %v (lb %v), %v", list.Makespan, lb, err)
	}
	res, err := ScheduleSearch(tm, ScheduleSearchOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan < lb || res.Makespan > list.Makespan+1e-12 {
		t.Fatalf("search makespan %v outside [lb %v, list %v]", res.Makespan, lb, list.Makespan)
	}
	brute, err := ScheduleBruteForce(tm)
	if err != nil || math.Abs(res.Makespan-brute.Makespan) > 1e-12 {
		t.Fatalf("search %v != brute force %v (%v)", res.Makespan, brute.Makespan, err)
	}
	fresh := facadeTable(t, tm.Row(0), tm.Row(1))
	again, err := ScheduleSearch(fresh, ScheduleSearchOptions{Seed: 7})
	if err != nil || again.Makespan != res.Makespan {
		t.Fatalf("table rebuild diverged: %v vs %v (%v)", again.Makespan, res.Makespan, err)
	}
}

func TestFacadeDatasetPersistence(t *testing.T) {
	ds := collectSmall(t, []GPU{A100})
	dir := filepath.Join(t.TempDir(), "ds")
	if err := ds.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	back, err := LoadDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.Summary() != ds.Summary() {
		t.Fatalf("round trip: %s vs %s", back.Summary(), ds.Summary())
	}
}

func TestFacadeRegistry(t *testing.T) {
	if len(AllGPUs()) != 7 {
		t.Fatal("GPU registry incomplete")
	}
	if _, err := GPUByName("V100"); err != nil {
		t.Fatal(err)
	}
	if len(Zoo()) != 646 {
		t.Fatalf("zoo = %d", len(Zoo()))
	}
	if len(StandardNetworks()) == 0 {
		t.Fatal("no standard networks")
	}
	n := NewNetwork("custom", "Custom", "image-classification", Shape{3, 64, 64})
	x := n.Conv(-1, 3, 8, 3, 1, 1)
	x = n.ReLU(x)
	n.GlobalAvgPool(x)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
}
