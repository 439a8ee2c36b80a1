// Package sim is the synthetic ground-truth generator that stands in for the
// paper's physical GPUs (see DESIGN.md §2 for the substitution argument). It
// assigns every kernel invocation a "measured" duration from a seeded
// roofline-style device model:
//
//	t = max(FLOPs/(computeEff·peakFLOPS), bytes/(bwEff·peakBW)) / util + overhead
//
// with per-(kernel-name, GPU) efficiencies drawn deterministically from a
// hash, a soft SM-utilization term, a fixed per-kernel device overhead, and
// lognormal measurement noise.
//
// The model is constructed so the dataset it generates exhibits the paper's
// observations O1–O6 — but the predictors in internal/core never see these
// rules or parameters; they only see the resulting measurements, exactly as
// the paper's models only see profiler output.
package sim

import (
	"math"
	"sync"

	"repro/internal/dnn"
	"repro/internal/gpu"
	"repro/internal/kernels"
	"repro/internal/rng"
)

// Config holds the device model's settable values. Zero fields take
// defaults.
type Config struct {
	// Seed perturbs every hashed efficiency, giving a distinct "universe"
	// of device behaviour (useful for robustness tests). The default 0 is
	// the canonical universe all experiments use.
	Seed int64

	// NoiseSigma is the per-invocation lognormal measurement noise; 0
	// means 0.03, and a negative value gives a noiseless device.
	NoiseSigma float64
}

// defaultNoiseSigma is the measurement noise of a zero Config.
const defaultNoiseSigma = 0.03

// The device-model constants every paper artifact depends on. They are
// typed so that products such as kernelOverheadUS*1e-6 round exactly as
// the same arithmetic on float64 variables does.
const (
	// kernelOverheadUS is the fixed device-side cost per kernel (ramp-up,
	// tail effect), in microseconds. It is part of the *measured kernel
	// duration*, as a profiler would report it.
	kernelOverheadUS float64 = 1.8
	// pipelineOverlapUS is the per-kernel-boundary saving when consecutive
	// kernels pipeline back-to-back in a real stream; it reduces end-to-end
	// wall time below the sum of individually-measured durations and is the
	// mechanism behind the kernel-wise model's overestimation tail on tiny
	// networks (§5.4).
	pipelineOverlapUS float64 = 1.1
	// pipelineOverlapFrac is the proportional part of the same effect: each
	// kernel boundary additionally hides this fraction of the shorter
	// neighbour (tail/ramp overlap between back-to-back kernels). A model
	// that sums individually measured kernel durations cannot observe it —
	// it is why the kernel-wise S-curve almost never underestimates
	// (Figure 13).
	pipelineOverlapFrac float64 = 0.06
	// batchFloorUS is the per-batch CPU scheduling overhead added to
	// end-to-end wall time (§4 O1: the linear trend breaks at low FLOPs).
	batchFloorUS float64 = 60
	// utilElems scales the soft SM-utilization knee of the compute leg: a
	// kernel writing x elements computes at utilization x/(x+utilElems·SM).
	utilElems float64 = 3072
	// memKneeBytes scales the bandwidth-utilization knee of the memory leg:
	// a kernel moving b bytes sustains b/(b+memKneeBytes·SM) of its
	// achievable bandwidth. Large streaming transfers (e.g. FC weight
	// reads) saturate DRAM even at low occupancy, so this knee is in bytes,
	// not output elements.
	memKneeBytes float64 = 32 << 10
)

// Device is a timing model of one GPU. It is safe for concurrent use:
// collection workers share one Device per GPU.
type Device struct {
	GPU gpu.Spec
	cfg Config
	// seedHash is the FNV-1a state after cfg.Seed's eight little-endian
	// bytes, which every efficiency hash starts from.
	seedHash rng.FNV
	// names memoizes each kernel name's nameFactors (string →
	// *nameFactors). A collection run evaluates tens of thousands of
	// distinct invocations but only a few dozen names, and every entry is
	// written once and then only read, the case sync.Map is built for.
	names sync.Map
}

// nameFactors are the parts of BaseKernelTime that depend on nothing but
// the kernel name (and the device): its efficiencies, its curvature
// exponent, and the fnv-1a states of the shape and geometry hashes after
// their name prefixes, into which BaseKernelTime folds the size buckets.
// Each is the same arithmetic, in the same order, as computing the factor
// on every call, so a memoized result is bit-identical to a fresh one.
type nameFactors struct {
	computeEff, bwEff float64
	curveEps          float64
	shape, geom       rng.FNV
}

// New builds a device model for the given GPU with the given configuration.
func New(g gpu.Spec, cfg Config) *Device {
	if cfg.NoiseSigma == 0 {
		cfg.NoiseSigma = defaultNoiseSigma
	}
	return &Device{GPU: g, cfg: cfg, seedHash: rng.NewFNV().Word(uint64(cfg.Seed))}
}

// NewDefault builds a device model with canonical constants.
func NewDefault(g gpu.Spec) *Device { return New(g, Config{}) }

// Config returns the device's resolved configuration.
func (d *Device) Config() Config { return d.cfg }

// hashTo01 converts a finished fnv-1a state to a uniform value in [0, 1).
func hashTo01(h rng.FNV) float64 { return float64(uint64(h)>>11) / float64(1<<53) }

// hash01 maps a string (plus the universe seed) to a uniform value in [0, 1).
func (d *Device) hash01(s string) float64 {
	return hashTo01(d.seedHash.Str(s))
}

// hash01Parts is hash01 over the concatenation of parts, computed without
// building the intermediate string.
func (d *Device) hash01Parts(parts ...string) float64 {
	h := d.seedHash
	for _, p := range parts {
		h = h.Str(p)
	}
	return hashTo01(h)
}

// archComputeFactor reflects generation-over-generation efficiency of the
// compute pipeline at equal theoretical TFLOPS.
func archComputeFactor(arch string) float64 {
	switch arch {
	case "Ampere":
		return 1.0
	case "Turing":
		return 0.95
	case "Volta":
		return 0.90
	case "Pascal":
		return 0.85
	default:
		return 0.92
	}
}

// archMemFactor reflects how much of the theoretical bandwidth each memory
// subsystem generation sustains (GDDR6X/HBM2e vs GDDR6 vs HBM2 vs GDDR5X).
// It is a systematic, architecture-specific component the inter-GPU model
// cannot see from the spec sheet — one source of its residual error.
func archMemFactor(arch string) float64 {
	switch arch {
	case "Ampere":
		return 1.0
	case "Turing":
		return 0.96
	case "Volta":
		return 0.97
	case "Pascal":
		return 0.88
	default:
		return 0.95
	}
}

// archSensitivity scales how unevenly an architecture's memory behaviour
// treats different kernel families (coalescing rules, L2 policies and cache
// sizes change across generations, and different access patterns care
// differently). The per-family penalty drawn from it is the long-tail
// component of the inter-GPU model's error: a network dominated by an
// unlucky kernel family on the target architecture is mispredicted by far
// more than the average (Figure 14's tail).
func archSensitivity(arch string) float64 {
	switch arch {
	case "Ampere":
		return 0.0 // reference generation
	case "Turing":
		return 0.42
	case "Volta":
		return 0.20
	case "Pascal":
		return 0.45
	default:
		return 0.2
	}
}

// Efficiencies returns the deterministic (computeEff, bwEff) pair of a kernel
// family on this device. bwEff is dominated by the kernel family — only a
// small GPU-specific jitter is applied — which is the mechanism behind
// observation O6 (stable bandwidth efficiency across GPUs) and the premise of
// the inter-GPU model.
func (d *Device) Efficiencies(kernelName string) (computeEff, bwEff float64) {
	f := d.factors(kernelName)
	return f.computeEff, f.bwEff
}

// factors returns the kernel name's memoized nameFactors, computing them on
// the name's first use. Concurrent first uses may both compute; the values
// are equal, and LoadOrStore keeps one.
func (d *Device) factors(kernelName string) *nameFactors {
	if f, ok := d.names.Load(kernelName); ok {
		return f.(*nameFactors)
	}
	f := &nameFactors{curveEps: 0.16 * (d.hash01Parts("curve:", kernelName) - 0.5)} // ε ∈ ±0.08
	f.computeEff, f.bwEff = d.efficiencies(kernelName)
	f.shape = d.seedHash.Str("shape:").Str(kernelName).Str(":")
	f.geom = d.seedHash.Str("geom:").Str(kernelName).Str(":")
	stored, _ := d.names.LoadOrStore(kernelName, f)
	return stored.(*nameFactors)
}

// efficiencies computes Efficiencies without the memo.
func (d *Device) efficiencies(kernelName string) (computeEff, bwEff float64) {
	fam := d.hash01Parts("fam:", kernelName)
	famBW := d.hash01Parts("fambw:", kernelName)
	jitC := d.hash01Parts("jitc:", kernelName, "|", d.GPU.Name)
	jitB := d.hash01Parts("jitb:", kernelName, "|", d.GPU.Name)

	computeEff = (0.16 + 0.24*fam) * archComputeFactor(d.GPU.Architecture)
	computeEff *= 1 + 0.20*(jitC-0.5) // ±10 % GPU-specific
	bwEff = (0.145 + 0.07*famBW) * algoBWFactor(kernelName) * archMemFactor(d.GPU.Architecture)
	if sens := archSensitivity(d.GPU.Architecture); sens > 0 {
		// The penalty is keyed by the kernel's algorithm group (the token
		// before the first underscore), so a whole algorithm pipeline —
		// e.g. every Winograd stage — shifts coherently on an architecture.
		h := d.hash01Parts("archsens:", algoGroup(kernelName), "|", d.GPU.Architecture)
		bwEff *= 1 - sens*h*h // quadratic: most groups mild, a few severe
	}
	bwEff *= 1 + 0.20*(jitB-0.5) // ±10 % GPU-specific
	return computeEff, bwEff
}

// algoGroup returns the kernel's algorithm-pipeline group: the leading name
// token ("winograd", "implicit", "bn", …).
func algoGroup(kernelName string) string {
	for i := 0; i < len(kernelName); i++ {
		if kernelName[i] == '_' {
			return kernelName[:i]
		}
	}
	return kernelName
}

// algoBWFactor captures the well-known efficiency gaps between kernel
// algorithm families at equal traffic: Winograd/GEMM pipelines stream close
// to peak, depthwise and grouped convolutions are notoriously
// bandwidth-inefficient. This is the within-layer-type heterogeneity that a
// per-layer-type model (LW) cannot see but a per-kernel model (KW) can —
// the gap between Figures 12 and 13.
func algoBWFactor(kernelName string) float64 {
	prefix := func(p string) bool {
		return len(kernelName) >= len(p) && kernelName[:len(p)] == p
	}
	switch {
	case prefix("winograd_gemm"):
		return 1.18
	case prefix("sgemm"), prefix("batched_gemm"):
		return 1.15
	case prefix("implicit_gemm"):
		return 1.0
	case prefix("fft"):
		return 0.92
	case prefix("direct_conv"):
		return 0.80
	case prefix("grouped_gemm"):
		return 0.72
	case prefix("depthwise_conv"):
		return 0.66
	case prefix("elementwise"), prefix("add_bias"), prefix("cat_copy"),
		prefix("channel_shuffle"), prefix("embedding"), prefix("softmax"),
		prefix("layernorm"):
		// Simple streaming kernels sustain a large fraction of peak DRAM
		// bandwidth; the ~15 % baseline below models tiled GEMM pipelines.
		return 2.0
	case prefix("bn_fwd"):
		// Batch norm's strided, multi-pass access pattern is notoriously
		// inefficient (the paper's Figure 7 places BN on a slow trend line).
		return 0.85
	case prefix("pooling"):
		return 0.75
	default:
		return 1.0
	}
}

// shapeFactor is the problem-geometry efficiency modulation: real kernels
// run at different efficiencies for different aspect ratios, tile
// utilizations and channel alignments even at the same total work. It is a
// deterministic function of the kernel family and a coarse size bucket, so
// it is *systematic* — a per-kernel linear model cannot average it away —
// and is one source of the kernel-wise model's residual error.
func shapeFactor(k kernels.Kernel, f *nameFactors) float64 {
	b := k.Bytes()
	if b <= 0 {
		b = 1
	}
	bucket := 0
	for b > 1 {
		b >>= 1
		bucket++
	}
	u := hashTo01(f.shape.Int(bucket))
	return 1 + 0.20*(u-0.5) // ±10 %
}

// geomFactor models efficiency differences across layer *geometries* at the
// same kernel: tile quantization, channel alignment and aspect-ratio effects
// make two problems of equal size run at different speeds. The key is
// batch-size invariant (built from per-output work and the input/output
// ratio, both independent of N), so it shifts whole layer configurations
// coherently — the per-network systematic residual behind the kernel-wise
// model's ~7 % error — without distorting batch-size extrapolation.
func geomFactor(k kernels.Kernel, f *nameFactors) float64 {
	workPerOut := 0
	if k.LayerOutputElems > 0 && k.LayerFLOPs > 0 {
		w := k.LayerFLOPs / k.LayerOutputElems
		for w > 1 {
			w >>= 1
			workPerOut++
		}
	}
	ratio := 0
	if k.LayerOutputElems > 0 && k.LayerInputElems > 0 {
		// Quarter-log2 buckets of the in/out size ratio.
		r := float64(k.LayerInputElems) / float64(k.LayerOutputElems)
		ratio = int(4 * math.Log2(r))
	}
	u := hashTo01(f.geom.Int(workPerOut).Str(":").Int(ratio))
	return 1 + 0.40*(u-0.5) // ±20 %
}

// curveRefBytes anchors the scaling-curvature term: kernels at this traffic
// level run at their nominal efficiency.
const curveRefBytes = 1 << 27 // 128 MiB

// curvatureFactor models the mild non-linearity of real kernel scaling
// (cache effects at small sizes, DRAM-page behaviour at large ones): each
// kernel family's time follows x^(1+ε) with a small family-specific ε, so a
// straight line fitted through a family's size range is systematically biased
// at the extremes. Unlike bucket jitter, this bias does not cancel when
// summing a network's kernels — it is the dominant, non-averaging component
// of the kernel-wise model's error.
func curvatureFactor(k kernels.Kernel, f *nameFactors) float64 {
	b := float64(k.Bytes())
	if b <= 0 {
		return 1
	}
	return math.Pow(b/curveRefBytes, f.curveEps)
}

// BaseKernelTime returns the noiseless duration of a kernel invocation on
// this device, in seconds.
func (d *Device) BaseKernelTime(k kernels.Kernel) float64 {
	f := d.factors(k.Name)
	compEff, bwEff := f.computeEff, f.bwEff

	// Compute leg: small kernels cannot fill the SMs.
	tc := float64(k.FLOPs) / (compEff * d.GPU.PeakFLOPS())
	kneeC := utilElems * float64(d.GPU.SMCount)
	x := float64(k.LayerOutputElems)
	if x <= 0 {
		x = 1
	}
	tc /= x / (x + kneeC)

	// Memory leg: small transfers cannot saturate DRAM, but large streaming
	// reads (weights) do so regardless of occupancy.
	bytes := float64(k.Bytes())
	tm := bytes / (bwEff * d.GPU.PeakBytesPerSec())
	kneeM := memKneeBytes * float64(d.GPU.SMCount)
	if bytes > 0 {
		tm /= bytes / (bytes + kneeM)
	}

	t := tc
	if tm > t {
		t = tm
	}
	t *= shapeFactor(k, f) * geomFactor(k, f) * curvatureFactor(k, f)
	return t + kernelOverheadUS*1e-6
}

// WallTime assembles the measured end-to-end wall time of one batch from the
// (already noisy) kernel durations: consecutive kernels pipeline and save
// pipelineOverlapUS per boundary (never more than the kernel itself), and the
// per-batch CPU scheduling floor is added.
func (d *Device) WallTime(kernelDurations []float64) float64 {
	wall := batchFloorUS * 1e-6
	overlap := pipelineOverlapUS * 1e-6
	for i, t := range kernelDurations {
		if i > 0 {
			shorter := t
			if prev := kernelDurations[i-1]; prev < shorter {
				shorter = prev
			}
			saved := overlap + pipelineOverlapFrac*shorter
			if saved > t*0.8 {
				saved = t * 0.8
			}
			t -= saved
		}
		wall += t
	}
	return wall
}

// workspaceBytes is the scratch allocation a cuDNN-like library keeps
// resident (plans, autotuning workspaces).
const workspaceBytes = 512 << 20

// InferenceFootprint is the resident-memory requirement of an inference run
// at the network's current (inferred) shapes. At inference only the live
// tensors are resident, so the activation term is the peak (producer +
// consumer) estimate rather than the sum over all layers.
func InferenceFootprint(n *dnn.Network) int64 {
	return n.WeightBytes() + n.PeakActivationBytes() + workspaceBytes
}

// TrainingFootprint is the training-step variant: every activation is
// retained for the backward pass, and weights carry gradient plus optimizer
// state (SGD momentum: 3× the parameter footprint in total).
func TrainingFootprint(n *dnn.Network) int64 {
	return 3*n.WeightBytes() + n.ActivationBytes() + workspaceBytes
}

// FitsFootprint reports whether a precomputed memory footprint fits in the
// device memory. The profiler snapshots a network's footprint once per
// (network, batch) and re-checks it cheaply per device.
func (d *Device) FitsFootprint(need int64) bool { return need <= d.GPU.MemBytes() }

// FitsMemory reports whether a network at the given batch size fits in the
// device memory; when it does not, execution fails like the paper's
// out-of-memory runs (§3, "we clean the dataset by removing ... fail-to-
// execute experiments").
func (d *Device) FitsMemory(n *dnn.Network) bool {
	return d.FitsFootprint(InferenceFootprint(n))
}
