// Package repro is a from-scratch Go reproduction of
//
//	Li, Sun, Jog. "Path Forward Beyond Simulators: Fast and Accurate GPU
//	Execution Time Prediction for DNN Workloads." MICRO 2023.
//
// It provides the paper's linear-regression performance models (End-to-End,
// Layer-Wise, Kernel-Wise and Inter-GPU Kernel-Wise) together with every
// substrate they need: a DNN representation with shape inference and FLOPs
// counting, a 646-network model zoo, a cuDNN-like kernel-selection layer, a
// synthetic GPU timing substrate standing in for physical hardware, a
// PyTorch-Profiler-style tracer, a CSV-backed measurement dataset, and the
// case-study simulators (bandwidth design-space exploration, disaggregated
// memory, cross-GPU scheduling).
//
// This root package is the stable facade a downstream user imports; it
// re-exports the library's types by alias and wires the most common
// workflows into a handful of functions. The typical flow mirrors the
// paper's Figure 10:
//
//	nets := repro.Zoo()                                  // workloads
//	ds, _, err := repro.Collect(nets, []repro.GPU{repro.A100}, repro.DefaultCollectOptions())
//	train, test := ds.SplitByNetwork(0.15, 1)
//	kw, err := repro.TrainKW(train, "A100")              // training part
//	seconds, err := kw.PredictNetwork(nets[0], 512)      // prediction part
//
// Experiment reproduction (every table and figure of the paper) lives behind
// the cmd/dnnperf binary and the bench harness.
package repro

import (
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dnn"
	"repro/internal/gpu"
	"repro/internal/profiler"
	"repro/internal/sim"
	"repro/internal/zoo"
)

// GPU describes a device by its theoretical specification (Table 1).
type GPU = gpu.Spec

// The seven GPUs of the paper's Table 1.
var (
	A100       = gpu.A100
	A40        = gpu.A40
	GTX1080Ti  = gpu.GTX1080Ti
	QuadroP620 = gpu.QuadroP620
	RTXA5000   = gpu.RTXA5000
	TitanRTX   = gpu.TitanRTX
	V100       = gpu.V100
)

// AllGPUs returns the Table 1 registry.
func AllGPUs() []GPU { return gpu.All() }

// GPUByName looks up a Table 1 GPU.
func GPUByName(name string) (GPU, error) { return gpu.ByName(name) }

// HypotheticalGPU builds a GPU that does not exist, for inter-GPU prediction
// and design-space exploration.
func HypotheticalGPU(name string, bwGBps, memGB, fp32TFLOPS float64) GPU {
	return gpu.Hypothetical(name, bwGBps, memGB, fp32TFLOPS)
}

// Network is a DNN structure: a topologically ordered layer DAG with shape
// inference and FLOPs counting.
type Network = dnn.Network

// Layer is one operation in a Network.
type Layer = dnn.Layer

// Shape is a tensor shape.
type Shape = dnn.Shape

// NewNetwork starts an empty network; see Network's builder methods (Conv,
// BN, ReLU, Linear, Residual, …) for assembling layers.
func NewNetwork(name, family string, task dnn.Task, input Shape) *Network {
	return dnn.New(name, family, task, input)
}

// Zoo returns the full 646-network zoo of the paper's dataset.
func Zoo() []*Network { return zoo.Full() }

// StandardNetworks returns the named canonical models (ResNets, VGGs,
// DenseNets, MobileNetV2, ShuffleNet v1, AlexNet, SqueezeNets, GoogLeNet and
// the BERT ladder).
func StandardNetworks() []*Network { return zoo.Standard() }

// NetworkByName builds one of the standard networks.
func NetworkByName(name string) (*Network, error) { return zoo.ByName(name) }

// Dataset is the measurement database the models train on.
type Dataset = dataset.Dataset

// CollectOptions configures dataset collection.
type CollectOptions = dataset.BuildOptions

// CollectReport summarizes a collection run.
type CollectReport = dataset.BuildReport

// DefaultCollectOptions returns the paper's measurement protocol
// (warm-up 20, measure 30 batches; E2E at batch sizes 4/64/512; layer and
// kernel detail at 512).
func DefaultCollectOptions() CollectOptions { return dataset.DefaultBuildOptions() }

// Collect profiles the networks on the GPUs (through the synthetic device
// substrate) and assembles the dataset; out-of-memory runs are dropped and
// reported, mirroring the paper's dataset cleaning.
func Collect(nets []*Network, gpus []GPU, opt CollectOptions) (*Dataset, *CollectReport, error) {
	return dataset.Build(nets, gpus, opt)
}

// LoadDataset reads a dataset directory written by Dataset.WriteDir.
func LoadDataset(dir string) (*Dataset, error) { return dataset.ReadDir(dir) }

// Predictor is the common interface of the single-GPU models.
type Predictor = core.Predictor

// SweepPredictor is a Predictor that evaluates many batch sizes in one pass
// over its compiled plan (KWModel implements it, for measured and IGKW
// models alike); see (*KWModel).PredictSweep.
type SweepPredictor = core.SweepPredictor

// PredictionGrid holds a (model × network × batch) grid of predicted
// seconds, indexed [model][network][batch].
type PredictionGrid = core.Grid

// PredictGrid evaluates every (model, network, batch) cell through the
// models' sweep paths — the bulk-query entry point the scheduling and
// design-space case studies are built on.
func PredictGrid(models []SweepPredictor, nets []*Network, batches []int) (*PredictionGrid, error) {
	return core.PredictGrid(models, nets, batches)
}

// The models of the paper (§5). The Inter-GPU model (§5.5) is a KWModel
// resolved for a never-measured GPU; see TrainIGKW.
type (
	E2EModel = core.E2EModel
	LWModel  = core.LWModel
	KWModel  = core.KWModel
)

// TrainBatchSize is the fully-utilizing batch size the paper trains at.
const TrainBatchSize = 512

// TrainE2E fits the End-to-End model (§5.2) for one GPU.
func TrainE2E(ds *Dataset, gpuName string) (*E2EModel, error) {
	return core.FitE2E(ds, gpuName, TrainBatchSize)
}

// TrainLW fits the Layer-Wise model (§5.3) for one GPU.
func TrainLW(ds *Dataset, gpuName string) (*LWModel, error) {
	return core.FitLW(ds, gpuName, TrainBatchSize)
}

// TrainKW fits the Kernel-Wise model (§5.4) for one GPU.
func TrainKW(ds *Dataset, gpuName string) (*KWModel, error) {
	return core.FitKW(ds, gpuName, TrainBatchSize)
}

// TrainIGKW fits the Inter-GPU Kernel-Wise model (§5.5) from the training
// GPUs' measurements and resolves it for a target GPU whose measurements are
// never consulted. The result is a KWModel whose Name is "IGKW".
func TrainIGKW(ds *Dataset, trainGPUs []GPU, target GPU) (*KWModel, error) {
	return core.FitIGKW(ds, trainGPUs, target, TrainBatchSize)
}

// Trace is a PyTorch-Profiler-style execution profile with the layer↔kernel
// mapping (Figure 2).
type Trace = profiler.Trace

// Profile executes one network at one batch size on a GPU's device substrate
// with the paper's warm-up/averaging protocol and returns the trace.
func Profile(n *Network, batch int, g GPU) (*Trace, error) {
	return profiler.New(sim.NewDefault(g)).Profile(n, batch)
}

// KWOptions exposes the kernel-wise model's design choices (ablations,
// training mode); the zero value is the paper's full design.
type KWOptions = core.KWOptions

// TrainKWAt fits a Kernel-Wise model at an explicit batch size with explicit
// options — used by the training-workload extension, which measures at a
// smaller fully-utilizing batch because training retains every activation.
func TrainKWAt(ds *Dataset, gpuName string, batch int, opt KWOptions) (*KWModel, error) {
	return core.FitKWOptions(ds, gpuName, batch, opt)
}

// ProfileTraining executes one full training step (forward + backward +
// optimizer kernels) of the network on a GPU's device substrate and returns
// the trace — the paper's training-workload extension.
func ProfileTraining(n *Network, batch int, g GPU) (*Trace, error) {
	p := profiler.New(sim.NewDefault(g))
	p.Training = true
	return p.Profile(n, batch)
}

// SmallBatchModel recalibrates a kernel-wise model away from its training
// batch size — the CPU/communication model the paper plans in §7.
type SmallBatchModel = core.SmallBatchModel

// TrainSmallBatch learns the per-batch-size recalibration from a dataset's
// multi-batch end-to-end records. The resolver maps dataset network names to
// structures (use NetworkByName for standard models).
func TrainSmallBatch(kw *KWModel, ds *Dataset, resolve func(string) (*Network, error)) (*SmallBatchModel, error) {
	return core.FitSmallBatch(kw, ds, resolve)
}

// Interval is a prediction with a one-sigma uncertainty margin.
type Interval = core.Interval

// SaveModel serializes a trained model (E2E, LW, KW or IGKW) to a file; the
// paper's workflow distributes trained models to users this way (Figure 10).
func SaveModel(path string, model Predictor) error { return core.SaveFile(path, model) }

// LoadModel reads a model written by SaveModel; the concrete type is
// recovered from the file's kind tag.
func LoadModel(path string) (Predictor, error) { return core.LoadFile(path) }
