package dnn

import (
	"fmt"
	"strconv"
)

// Kind identifies the operation a layer performs. The set covers the layer
// vocabulary of the image-classification and text-classification networks
// used in the paper (TorchVision CNNs and HuggingFace-style transformers).
type Kind string

// Layer kinds.
const (
	KindConv2D         Kind = "Conv2D"
	KindLinear         Kind = "Linear"
	KindBatchNorm      Kind = "BatchNorm"
	KindLayerNorm      Kind = "LayerNorm"
	KindReLU           Kind = "ReLU"
	KindReLU6          Kind = "ReLU6"
	KindGELU           Kind = "GELU"
	KindSigmoid        Kind = "Sigmoid"
	KindSoftmax        Kind = "Softmax"
	KindMaxPool2D      Kind = "MaxPool"
	KindAvgPool2D      Kind = "AvgPool"
	KindGlobalAvgPool  Kind = "GlobalAvgPool"
	KindAdd            Kind = "Add"
	KindConcat         Kind = "Concat"
	KindFlatten        Kind = "Flatten"
	KindDropout        Kind = "Dropout"
	KindChannelShuffle Kind = "ChannelShuffle"
	KindEmbedding      Kind = "Embedding"
	KindMatMul         Kind = "MatMul"
	KindReshapeTokens  Kind = "ReshapeTokens"
	KindIdentity       Kind = "Identity"
)

// Kinds lists every layer kind, in a stable order, for table-driven code.
func Kinds() []Kind {
	return []Kind{
		KindConv2D, KindLinear, KindBatchNorm, KindLayerNorm, KindReLU,
		KindReLU6, KindGELU, KindSigmoid, KindSoftmax, KindMaxPool2D,
		KindAvgPool2D, KindGlobalAvgPool, KindAdd, KindConcat, KindFlatten,
		KindDropout, KindChannelShuffle, KindEmbedding, KindMatMul,
		KindReshapeTokens, KindIdentity,
	}
}

// NetworkInput is the pseudo-index used in Layer.Inputs to reference the
// network's input tensor rather than another layer's output.
const NetworkInput = -1

// Layer is a single operation in a network. Parameter fields are meaningful
// only for the kinds that use them (documented per field); unused fields are
// zero. InShape and OutShape are populated by Network.Infer.
type Layer struct {
	// Name is unique within the network (assigned by Network.Add).
	Name string
	// Kind selects the operation.
	Kind Kind

	// Inputs lists the indices of producer layers within Network.Layers.
	// NetworkInput (-1) denotes the network input tensor. Most layers have
	// exactly one input; Add and Concat and MatMul take two or more.
	Inputs []int

	// Cin, Cout are input/output channel counts (Conv2D).
	Cin, Cout int
	// KH, KW are kernel height/width (Conv2D, MaxPool, AvgPool).
	KH, KW int
	// Stride is the spatial stride (Conv2D, MaxPool, AvgPool).
	Stride int
	// Pad is the symmetric spatial padding (Conv2D, MaxPool, AvgPool).
	Pad int
	// Groups is the convolution group count (Conv2D, ChannelShuffle).
	Groups int

	// InFeatures, OutFeatures are input/output widths (Linear).
	InFeatures, OutFeatures int

	// VocabSize and EmbedDim parameterize Embedding layers.
	VocabSize, EmbedDim int

	// Heads is the attention head count (MatMul in attention blocks).
	Heads int
	// TransposeB indicates the MatMul computes A·Bᵀ (score matmul) rather
	// than A·B (context matmul).
	TransposeB bool

	// InShape is the shape of the (first) input after shape inference.
	InShape Shape
	// InShapes holds the shape of every input for multi-input layers.
	InShapes []Shape
	// OutShape is the output shape after shape inference.
	OutShape Shape
}

// HasWeights reports whether the layer owns learned parameters that occupy
// device memory (used by the OOM model and the disaggregated-memory
// prefetcher).
func (l *Layer) HasWeights() bool {
	switch l.Kind {
	case KindConv2D, KindLinear, KindBatchNorm, KindLayerNorm, KindEmbedding:
		return true
	}
	return false
}

// WeightCount returns the number of learned scalar parameters of the layer.
func (l *Layer) WeightCount() int64 { return l.weightCount().v }

// weightCount is WeightCount with overflow tracking.
func (l *Layer) weightCount() count {
	switch l.Kind {
	case KindConv2D:
		g := l.Groups
		if g == 0 {
			g = 1
		}
		return count{v: int64(l.Cout)}.times(int64(l.Cin / g)).times(int64(l.KH)).times(int64(l.KW))
	case KindLinear:
		return count{v: int64(l.InFeatures)}.times(int64(l.OutFeatures)).plus(count{v: int64(l.OutFeatures)})
	case KindBatchNorm, KindLayerNorm:
		// scale + shift per channel/feature.
		c := l.InShape.Channels()
		if l.Kind == KindLayerNorm && l.InShape.Rank() >= 1 {
			c = l.InShape[len(l.InShape)-1]
		}
		return count{v: 2}.times(int64(c))
	case KindEmbedding:
		return count{v: int64(l.VocabSize)}.times(int64(l.EmbedDim))
	}
	return count{}
}

// checkCounts rejects an inferred layer whose element, parameter or FLOP
// counts leave int64. Everything downstream — FLOPs, kernel drivers,
// compiled plans — is exact int64 arithmetic on these counts, so a wrapped
// one would silently turn into a garbage prediction.
func (l *Layer) checkCounts() error {
	var in count
	for _, s := range l.InShapes {
		in = in.plus(s.numel())
	}
	switch {
	case in.overflow():
		return fmt.Errorf("input element count overflows int64")
	case l.OutShape.numel().overflow():
		return fmt.Errorf("output shape %s: element count overflows int64", l.OutShape)
	case l.weightCount().overflow():
		return fmt.Errorf("parameter count overflows int64")
	case layerFLOPs(l).overflow():
		return fmt.Errorf("FLOP count overflows int64")
	}
	return nil
}

// Signature is a structural key identifying the layer's problem instance:
// kind plus the parameters and inferred shapes that determine which GPU
// kernels a cuDNN-like library would dispatch. The kernel-wise model's
// layer→kernel mapping table is keyed by this signature, following the
// paper's "look-up table that maps from the layer type and input/output size
// to the kernel list" (§5.4).
func (l *Layer) Signature() string {
	return string(l.AppendSignature(make([]byte, 0, 96)))
}

// AppendSignature appends Signature's rendering to dst and returns the
// extended slice. It exists for hot paths (plan compilation resolves a
// signature per layer per batch breakpoint) that want to reuse one buffer
// and look the result up with the map[string(buf)] idiom instead of
// materializing a string: fmt-free, it allocates only when dst must grow.
func (l *Layer) AppendSignature(dst []byte) []byte {
	dst = append(dst, l.Kind...)
	switch l.Kind {
	case KindConv2D:
		dst = append(dst, "|cin="...)
		dst = strconv.AppendInt(dst, int64(l.Cin), 10)
		dst = append(dst, "|cout="...)
		dst = strconv.AppendInt(dst, int64(l.Cout), 10)
		dst = append(dst, "|k="...)
		dst = strconv.AppendInt(dst, int64(l.KH), 10)
		dst = append(dst, 'x')
		dst = strconv.AppendInt(dst, int64(l.KW), 10)
		dst = append(dst, "|s="...)
		dst = strconv.AppendInt(dst, int64(l.Stride), 10)
		dst = append(dst, "|p="...)
		dst = strconv.AppendInt(dst, int64(l.Pad), 10)
		dst = append(dst, "|g="...)
		dst = strconv.AppendInt(dst, int64(l.Groups), 10)
	case KindLinear:
		dst = append(dst, "|in="...)
		dst = strconv.AppendInt(dst, int64(l.InFeatures), 10)
		dst = append(dst, "|out="...)
		dst = strconv.AppendInt(dst, int64(l.OutFeatures), 10)
	case KindMaxPool2D, KindAvgPool2D:
		dst = append(dst, "|k="...)
		dst = strconv.AppendInt(dst, int64(l.KH), 10)
		dst = append(dst, 'x')
		dst = strconv.AppendInt(dst, int64(l.KW), 10)
		dst = append(dst, "|s="...)
		dst = strconv.AppendInt(dst, int64(l.Stride), 10)
		dst = append(dst, "|p="...)
		dst = strconv.AppendInt(dst, int64(l.Pad), 10)
	case KindEmbedding:
		dst = append(dst, "|vocab="...)
		dst = strconv.AppendInt(dst, int64(l.VocabSize), 10)
		dst = append(dst, "|dim="...)
		dst = strconv.AppendInt(dst, int64(l.EmbedDim), 10)
	case KindMatMul:
		dst = append(dst, "|heads="...)
		dst = strconv.AppendInt(dst, int64(l.Heads), 10)
		dst = append(dst, "|tb="...)
		dst = strconv.AppendBool(dst, l.TransposeB)
	}
	dst = append(dst, "|in="...)
	dst = l.InShape.appendString(dst)
	dst = append(dst, "|out="...)
	return l.OutShape.appendString(dst)
}

// Rebatch rewrites the batch dimension of the layer's inferred shapes in
// place. Valid only on layers whose shapes came from Network.Infer: every
// layer kind produces an output shape whose leading dimension is the batch
// size and whose remaining dimensions are batch-invariant, so overwriting
// dimension 0 reproduces exactly what re-inference at the new batch size
// would compute. InShape aliases InShapes[0] and producers' OutShape slices;
// the writes are idempotent, so the aliasing is harmless.
func (l *Layer) Rebatch(batch int) {
	if len(l.InShape) > 0 {
		l.InShape[0] = batch
	}
	for _, s := range l.InShapes {
		if len(s) > 0 {
			s[0] = batch
		}
	}
	if len(l.OutShape) > 0 {
		l.OutShape[0] = batch
	}
}

// validate checks parameter consistency independent of shapes.
func (l *Layer) validate() error {
	if len(l.Inputs) == 0 {
		return fmt.Errorf("dnn: layer %q (%s) has no inputs", l.Name, l.Kind)
	}
	switch l.Kind {
	case KindConv2D:
		if l.Cin <= 0 || l.Cout <= 0 || l.KH <= 0 || l.KW <= 0 || l.Stride <= 0 {
			return fmt.Errorf("dnn: conv layer %q has non-positive parameters", l.Name)
		}
		g := l.Groups
		if g <= 0 {
			return fmt.Errorf("dnn: conv layer %q has groups=%d", l.Name, g)
		}
		if l.Cin%g != 0 || l.Cout%g != 0 {
			return fmt.Errorf("dnn: conv layer %q channels (%d→%d) not divisible by groups %d",
				l.Name, l.Cin, l.Cout, g)
		}
	case KindLinear:
		if l.InFeatures <= 0 || l.OutFeatures <= 0 {
			return fmt.Errorf("dnn: linear layer %q has non-positive feature sizes", l.Name)
		}
	case KindMaxPool2D, KindAvgPool2D:
		if l.KH <= 0 || l.KW <= 0 || l.Stride <= 0 {
			return fmt.Errorf("dnn: pool layer %q has non-positive parameters", l.Name)
		}
	case KindEmbedding:
		if l.VocabSize <= 0 || l.EmbedDim <= 0 {
			return fmt.Errorf("dnn: embedding layer %q has non-positive parameters", l.Name)
		}
	case KindAdd:
		if len(l.Inputs) < 2 {
			return fmt.Errorf("dnn: add layer %q needs at least 2 inputs", l.Name)
		}
	case KindConcat:
		if len(l.Inputs) < 2 {
			return fmt.Errorf("dnn: concat layer %q needs at least 2 inputs", l.Name)
		}
	case KindMatMul:
		if len(l.Inputs) != 2 {
			return fmt.Errorf("dnn: matmul layer %q needs exactly 2 inputs", l.Name)
		}
		if l.Heads <= 0 {
			return fmt.Errorf("dnn: matmul layer %q has heads=%d", l.Name, l.Heads)
		}
	case KindChannelShuffle:
		if l.Groups <= 0 {
			return fmt.Errorf("dnn: channel shuffle layer %q has groups=%d", l.Name, l.Groups)
		}
	}
	return nil
}
