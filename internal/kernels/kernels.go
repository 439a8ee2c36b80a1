// Package kernels models how a cuDNN-like vendor library lowers DNN layers
// to GPU kernel sequences. It reproduces the structure the paper observes in
// cuDNN executions (§4 O5): a layer typically dispatches 1) a pre-processing
// kernel working on the input tensor, 2) one main computation kernel whose
// cost tracks the layer's operation count, and 3) a post-processing kernel
// working on the output tensor — which is exactly what motivates the
// input-/operation-/output-driven kernel classification.
//
// The selection is deterministic in the layer's structural parameters,
// mirroring cuDNN's size-dependent algorithm and tile choices ("even if the
// same method is used, the GPU libraries might use different implementations
// according to the layer size and data layout", §2.1). Across the full zoo
// this yields on the order of 180 distinct kernel names, matching the paper's
// dataset ("about 182 kernels each GPU").
package kernels

import (
	"fmt"

	"repro/internal/dnn"
)

// Class is a kernel's ground-truth driver class. It is produced by this
// package (and consumed by the synthetic device model) but is deliberately
// NOT exposed to the performance models in internal/core — they must recover
// it from data via the R² classification of §4 O5. Tests use it as the
// planted truth the classifier should find.
type Class string

// Driver classes.
const (
	// ClassInput marks pre-processing kernels whose time tracks the layer
	// input size (N·C·H·W of the input tensor).
	ClassInput Class = "input"
	// ClassOperation marks main computation kernels whose time tracks the
	// layer's FLOPs.
	ClassOperation Class = "operation"
	// ClassOutput marks post-processing kernels whose time tracks the layer
	// output size.
	ClassOutput Class = "output"
)

// Kernel is one GPU kernel launch generated for a layer.
type Kernel struct {
	// Name identifies the kernel implementation (family plus tile variant),
	// e.g. "winograd_gemm_128x64". Kernels with equal names share a device
	// efficiency profile in the synthetic device model, as real kernels do.
	Name string
	// Class is the ground-truth driver class (see the type doc).
	Class Class

	// FLOPs is the floating-point work the kernel actually executes on the
	// device. For main kernels this is the layer's theoretical FLOPs scaled
	// by the algorithm's arithmetic factor (e.g. Winograd executes fewer
	// multiplications than the direct method).
	FLOPs int64
	// BytesRead and BytesWritten are the kernel's DRAM traffic estimates.
	BytesRead, BytesWritten int64

	// LayerFLOPs, LayerInputElems and LayerOutputElems are the *layer-level*
	// driver candidates the kernel-wise predictor regresses against — the
	// quantities available from pure structural analysis (§4 O5).
	LayerFLOPs       int64
	LayerInputElems  int64
	LayerOutputElems int64
}

// Bytes returns total DRAM traffic.
func (k Kernel) Bytes() int64 { return k.BytesRead + k.BytesWritten }

// ConvAlgorithm identifies the convolution lowering cuDNN would select.
type ConvAlgorithm string

// Convolution algorithms (§2.2 lists the same four).
const (
	AlgoDirect       ConvAlgorithm = "direct"
	AlgoImplicitGEMM ConvAlgorithm = "implicit_gemm"
	AlgoWinograd     ConvAlgorithm = "winograd"
	AlgoFFT          ConvAlgorithm = "fft"
	AlgoDepthwise    ConvAlgorithm = "depthwise"
	AlgoGroupedGEMM  ConvAlgorithm = "grouped_gemm"
)

// SelectConvAlgorithm reproduces a cuDNN-style heuristic choice from layer
// parameters. The thresholds are fixed conventions; what matters for the
// study is that the choice is a deterministic function of layer size, so the
// same layer signature always maps to the same kernel list.
func SelectConvAlgorithm(l *dnn.Layer) ConvAlgorithm {
	switch {
	case l.Groups == l.Cin && l.Cin == l.Cout && l.Groups > 1:
		return AlgoDepthwise
	case l.Groups > 1:
		return AlgoGroupedGEMM
	case l.KH == 1 && l.KW == 1:
		return AlgoImplicitGEMM
	case l.KH == 3 && l.KW == 3 && l.Stride == 1 && l.Cin >= 16 && l.Cout >= 16:
		return AlgoWinograd
	case l.KH >= 5 && l.InShape.Spatial() >= 56*56:
		return AlgoFFT
	case l.KH*l.KW*l.Cin < 64:
		return AlgoDirect
	default:
		return AlgoImplicitGEMM
	}
}

// tile is a GEMM tile-size variant: cuDNN dispatches a different SASS
// kernel per problem-size bucket.
type tile uint8

// Tile variants, largest first.
const (
	tile256x128 tile = iota
	tile128x128
	tile128x64
	tile64x64
	tile64x32
	tile32x32
	numTiles
)

// tileSuffix is each variant's kernel-name suffix.
var tileSuffix = [numTiles]string{"256x128", "128x128", "128x64", "64x64", "64x32", "32x32"}

// gemmTile buckets a GEMM-shaped problem into a tile-size variant.
func gemmTile(m, nCols int64) tile {
	switch {
	case m >= 256 && nCols >= 128:
		return tile256x128
	case m >= 128 && nCols >= 128:
		return tile128x128
	case m >= 128 && nCols >= 64:
		return tile128x64
	case m >= 64 && nCols >= 64:
		return tile64x64
	case m >= 64 && nCols >= 32:
		return tile64x32
	default:
		return tile32x32
	}
}

// tileNames is one tiled kernel family's name per tile variant.
type tileNames [numTiles]string

// tiled builds a family's names once, at package init, so enumeration picks
// a name by index instead of concatenating one per launch.
func tiled(prefix string) *tileNames {
	var t tileNames
	for i, s := range tileSuffix {
		t[i] = prefix + s
	}
	return &t
}

// Tiled kernel families, forward and backward.
var (
	sgemmNames           = tiled("sgemm_")
	sgemmBwdDataNames    = tiled("sgemm_bwd_data_")
	sgemmBwdFilterNames  = tiled("sgemm_bwd_filter_")
	groupedGEMMNames     = tiled("grouped_gemm_")
	implicitGEMMNames    = tiled("implicit_gemm_")
	winogradGEMMNames    = tiled("winograd_gemm_")
	fftCGEMMNames        = tiled("fft_cgemm_")
	batchedGEMMNTNames   = tiled("batched_gemm_nt_")
	batchedGEMMNNNames   = tiled("batched_gemm_nn_")
	batchedGEMMBwdANames = tiled("batched_gemm_bwd_a_")
	batchedGEMMBwdBNames = tiled("batched_gemm_bwd_b_")
	convGradNames        = func() map[ConvAlgorithm][2]*tileNames {
		m := make(map[ConvAlgorithm][2]*tileNames)
		for _, a := range []ConvAlgorithm{AlgoDirect, AlgoImplicitGEMM, AlgoWinograd, AlgoFFT, AlgoDepthwise, AlgoGroupedGEMM} {
			m[a] = [2]*tileNames{tiled("conv_dgrad_" + string(a) + "_"), tiled("conv_wgrad_" + string(a) + "_")}
		}
		return m
	}()
)

// Direct and depthwise convolution names carry the filter size (and, for
// depthwise, the stride). The zoo uses only 3×3 filters at strides 1 and 2;
// the table covers filters up to maxNamedFilter and strides up to
// maxNamedStride, and only an inline spec beyond them formats its name.
const maxNamedFilter, maxNamedStride = 11, 4

var (
	directConvNames    [maxNamedFilter + 1]string
	depthwiseConvNames [maxNamedFilter + 1][maxNamedStride + 1]string
)

func init() {
	for k := range directConvNames {
		directConvNames[k] = fmt.Sprintf("direct_conv_k%d", k)
		for s := range depthwiseConvNames[k] {
			depthwiseConvNames[k][s] = fmt.Sprintf("depthwise_conv_k%d_s%d", k, s)
		}
	}
}

func directConvName(k int) string {
	if k >= 0 && k <= maxNamedFilter {
		return directConvNames[k]
	}
	return fmt.Sprintf("direct_conv_k%d", k)
}

func depthwiseConvName(k, s int) string {
	if k >= 0 && k <= maxNamedFilter && s >= 0 && s <= maxNamedStride {
		return depthwiseConvNames[k][s]
	}
	return fmt.Sprintf("depthwise_conv_k%d_s%d", k, s)
}

// activationNames returns an activation kind's forward and backward
// elementwise kernel names.
func activationNames(k dnn.Kind) (fwd, bwd string) {
	switch k {
	case dnn.KindReLU:
		return "elementwise_relu", "elementwise_relu_bwd"
	case dnn.KindReLU6:
		return "elementwise_relu6", "elementwise_relu6_bwd"
	case dnn.KindSigmoid:
		return "elementwise_sigmoid", "elementwise_sigmoid_bwd"
	case dnn.KindGELU:
		return "elementwise_gelu", "elementwise_gelu_bwd"
	}
	return "elementwise_op", "elementwise_op_bwd"
}

// elemBytes is the FP32 element size.
const elemBytes = 4

// layerInfo holds the layer-level quantities every kernel of a layer
// carries, computed once per layer.
type layerInfo struct {
	inElems, outElems, flops, weightBytes int64
}

func infoOf(l *dnn.Layer) layerInfo {
	inElems := int64(0)
	for _, s := range l.InShapes {
		inElems += s.Numel()
	}
	if inElems == 0 {
		inElems = l.InShape.Numel()
	}
	return layerInfo{
		inElems:     inElems,
		outElems:    l.OutShape.Numel(),
		flops:       dnn.LayerFLOPs(l),
		weightBytes: dnn.LayerWeightBytes(l),
	}
}

// kernel builds one launch of the layer.
func (li *layerInfo) kernel(name string, class Class, flops, read, written int64) Kernel {
	return Kernel{
		Name: name, Class: class,
		FLOPs: flops, BytesRead: read, BytesWritten: written,
		LayerFLOPs: li.flops, LayerInputElems: li.inElems, LayerOutputElems: li.outElems,
	}
}

// ForLayer returns the kernel sequence a cuDNN-like library dispatches for
// the layer. The layer must have inferred shapes. Layers that lower to pure
// views (Flatten, Dropout at inference, Identity) return no kernels.
func ForLayer(l *dnn.Layer) []Kernel {
	li := infoOf(l)
	return appendForward(nil, l, &li)
}

// AppendNetwork appends a network's launch sequence to ks and each launch's
// producing layer index to layerIdx, and returns both extended slices. With
// training false the sequence is one forward pass; with training true it is
// one training step: the forward pass, then every layer's backward and
// optimizer kernels in reverse layer order, as autograd executes them. The
// network must have inferred shapes. Kernel names come from package tables,
// so enumerating into buffers with enough capacity allocates nothing.
func AppendNetwork(ks []Kernel, layerIdx []int, n *dnn.Network, training bool) ([]Kernel, []int) {
	for i, l := range n.Layers {
		li := infoOf(l)
		before := len(ks)
		ks = appendForward(ks, l, &li)
		for range ks[before:] {
			layerIdx = append(layerIdx, i)
		}
	}
	if training {
		for i := len(n.Layers) - 1; i >= 0; i-- {
			l := n.Layers[i]
			li := infoOf(l)
			before := len(ks)
			ks = appendBackward(ks, l, &li)
			for range ks[before:] {
				layerIdx = append(layerIdx, i)
			}
		}
	}
	return ks, layerIdx
}

// appendForward appends the layer's forward kernels to dst.
func appendForward(dst []Kernel, l *dnn.Layer, li *layerInfo) []Kernel {
	inBytes := li.inElems * elemBytes
	outBytes := li.outElems * elemBytes

	switch l.Kind {
	case dnn.KindConv2D:
		return appendConv(dst, l, li)

	case dnn.KindLinear:
		// GEMM: (rows = batch·positions) × (cols = OutFeatures).
		rows := li.outElems / int64(l.OutFeatures)
		t := gemmTile(rows, int64(l.OutFeatures))
		return append(dst,
			li.kernel(sgemmNames[t], ClassOperation, li.flops, inBytes+li.weightBytes, outBytes),
			li.kernel("add_bias", ClassOutput, li.outElems, outBytes, outBytes))

	case dnn.KindBatchNorm:
		return append(dst, li.kernel("bn_fwd_inference", ClassInput, li.flops, inBytes, outBytes))

	case dnn.KindLayerNorm:
		return append(dst, li.kernel("layernorm_fwd", ClassInput, li.flops, inBytes, outBytes))

	case dnn.KindReLU, dnn.KindReLU6, dnn.KindSigmoid, dnn.KindGELU:
		name, _ := activationNames(l.Kind)
		return append(dst, li.kernel(name, ClassOutput, li.flops, inBytes, outBytes))

	case dnn.KindSoftmax:
		return append(dst, li.kernel("softmax_fwd", ClassOutput, li.flops, inBytes, outBytes))

	case dnn.KindMaxPool2D:
		return append(dst, li.kernel("pooling_fwd_max", ClassInput, li.flops, inBytes, outBytes))

	case dnn.KindAvgPool2D:
		return append(dst, li.kernel("pooling_fwd_avg", ClassInput, li.flops, inBytes, outBytes))

	case dnn.KindGlobalAvgPool:
		return append(dst, li.kernel("reduce_spatial_avg", ClassInput, li.flops, inBytes, outBytes))

	case dnn.KindAdd:
		return append(dst, li.kernel("elementwise_add", ClassOutput, li.flops, inBytes, outBytes))

	case dnn.KindConcat:
		return append(dst, li.kernel("cat_copy", ClassOutput, 0, inBytes, outBytes))

	case dnn.KindChannelShuffle:
		return append(dst, li.kernel("channel_shuffle_copy", ClassOutput, 0, inBytes, outBytes))

	case dnn.KindEmbedding:
		// Gathers one row per token.
		return append(dst, li.kernel("embedding_lookup", ClassOutput, 0, outBytes, outBytes))

	case dnn.KindMatMul:
		// Batched attention GEMM; bucket by per-head matrix sizes.
		tl := int64(l.InShapes[0][1])
		names := batchedGEMMNTNames
		if !l.TransposeB {
			names = batchedGEMMNNNames
		}
		return append(dst, li.kernel(names[gemmTile(tl, tl)], ClassOperation, li.flops, inBytes, outBytes))
	}
	// Flatten, Dropout, ReshapeTokens and Identity are views: no kernels.
	return dst
}

// appendConv appends a convolution's kernels, lowered through its selected
// algorithm.
func appendConv(dst []Kernel, l *dnn.Layer, li *layerInfo) []Kernel {
	inBytes := li.inElems * elemBytes
	outBytes := li.outElems * elemBytes
	// GEMM view of the convolution: rows = N·H'·W', cols = Cout.
	t := gemmTile(li.outElems/int64(l.Cout), int64(l.Cout))

	switch SelectConvAlgorithm(l) {
	case AlgoDepthwise:
		return append(dst, li.kernel(depthwiseConvName(l.KH, l.Stride), ClassOperation, li.flops,
			inBytes+li.weightBytes, outBytes))

	case AlgoGroupedGEMM:
		return append(dst, li.kernel(groupedGEMMNames[t], ClassOperation, li.flops,
			inBytes+li.weightBytes, outBytes))

	case AlgoImplicitGEMM:
		// 1×1 and generic implicit GEMM: a single fused main kernel, plus an
		// im2col-style pre-pass only for spatial kernels.
		if l.KH > 1 || l.KW > 1 {
			patch := int64(l.KH * l.KW)
			dst = append(dst, li.kernel("im2col", ClassInput, 0, inBytes, inBytes*patch))
		}
		return append(dst, li.kernel(implicitGEMMNames[t], ClassOperation, li.flops,
			inBytes+li.weightBytes, outBytes))

	case AlgoWinograd:
		// F(2×2, 3×3): 2.25× multiplication reduction on the main GEMM.
		return append(dst,
			li.kernel("winograd_input_transform", ClassInput, li.inElems*2,
				inBytes, inBytes*4), // 16/4 tile expansion
			li.kernel(winogradGEMMNames[t], ClassOperation, li.flops*4/9,
				inBytes*4+li.weightBytes*16/9, outBytes*4),
			li.kernel("winograd_output_transform", ClassOutput, li.outElems*2,
				outBytes*4, outBytes))

	case AlgoFFT:
		return append(dst,
			li.kernel("fft_r2c_plan", ClassInput, li.inElems*4, inBytes, inBytes*2),
			li.kernel(fftCGEMMNames[t], ClassOperation, li.flops/2,
				inBytes*2+li.weightBytes*2, outBytes*2),
			li.kernel("fft_c2r_inverse", ClassOutput, li.outElems*4, outBytes*2, outBytes))

	default: // AlgoDirect
		return append(dst, li.kernel(directConvName(l.KH), ClassOperation, li.flops,
			inBytes+li.weightBytes, outBytes))
	}
}

// BatchBreakpoints returns the batch sizes at which the layer's kernel
// *names* can change as the batch grows, in ascending order. Only GEMM-backed
// layers (Conv2D, Linear) dispatch tile variants keyed by the GEMM row count
// m = batch·positions; the tile thresholds {32, 64, 128, 256} are first
// crossed at batch ceil(threshold/positions). All other kernel-name inputs
// (algorithm selection, column counts, MatMul sequence lengths) are
// batch-independent. The layer must have inferred shapes; the result is the
// same whatever batch size they were inferred at.
func BatchBreakpoints(l *dnn.Layer) []int {
	var perSample int64
	switch l.Kind {
	case dnn.KindConv2D:
		perSample = l.OutShape.Numel() / int64(l.Cout) / int64(l.OutShape.Batch())
	case dnn.KindLinear:
		perSample = l.OutShape.Numel() / int64(l.OutFeatures) / int64(l.OutShape.Batch())
	default:
		return nil
	}
	if perSample <= 0 {
		return nil
	}
	var bps []int
	for _, threshold := range []int64{32, 64, 128, 256} {
		bp := (threshold + perSample - 1) / perSample
		if bp > 1 {
			bps = append(bps, int(bp))
		}
	}
	return bps
}
