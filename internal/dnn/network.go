package dnn

import (
	"fmt"
	"strconv"
)

// Task labels the problem a network solves; the paper's dataset covers image
// classification plus a transformer extension for text classification.
type Task string

// Supported tasks.
const (
	TaskImageClassification Task = "image-classification"
	TaskTextClassification  Task = "text-classification"
)

// Network is a DAG of layers stored in topological order: a layer may only
// reference earlier layers (or the network input) as its inputs. This mirrors
// how frameworks serialize models and makes shape inference a single forward
// pass.
type Network struct {
	// Name uniquely identifies the network in the dataset, e.g. "resnet50".
	Name string
	// Family groups structural variants, e.g. "ResNet", "VGG", "DenseNet".
	Family string
	// Task is the problem class the network targets.
	Task Task
	// InputShape is the per-sample input shape, without batch dimension
	// (e.g. {3, 224, 224} for ImageNet, {128} for 128-token sequences).
	InputShape Shape
	// Layers holds the layers in topological order.
	Layers []*Layer

	// batch is the batch size the inferred shapes describe: set by a
	// successful Infer or Rebatch, 0 before one and after a failed one.
	batch int
}

// New creates an empty network with the given identity and per-sample input
// shape.
func New(name, family string, task Task, input Shape) *Network {
	return &Network{Name: name, Family: family, Task: task, InputShape: input.Clone()}
}

// Add appends a layer and returns its index, for use as an input reference by
// later layers. The layer's Inputs must already be set and must reference
// only earlier layers or NetworkInput. Add assigns the layer a unique name
// if it has none.
func (n *Network) Add(l *Layer) int {
	idx := len(n.Layers)
	if l.Name == "" {
		l.Name = string(l.Kind) + "_" + strconv.Itoa(idx)
	}
	n.Layers = append(n.Layers, l)
	n.batch = 0 // invalidate any prior inference
	return idx
}

// Conv adds a standard 2-D convolution (groups=1).
func (n *Network) Conv(in, cin, cout, k, stride, pad int) int {
	return n.Add(&Layer{Kind: KindConv2D, Inputs: []int{in},
		Cin: cin, Cout: cout, KH: k, KW: k, Stride: stride, Pad: pad, Groups: 1})
}

// GroupConv adds a grouped 2-D convolution.
func (n *Network) GroupConv(in, cin, cout, k, stride, pad, groups int) int {
	return n.Add(&Layer{Kind: KindConv2D, Inputs: []int{in},
		Cin: cin, Cout: cout, KH: k, KW: k, Stride: stride, Pad: pad, Groups: groups})
}

// DWConv adds a depthwise convolution (groups = channels).
func (n *Network) DWConv(in, c, k, stride, pad int) int {
	return n.GroupConv(in, c, c, k, stride, pad, c)
}

// BN adds a batch-normalization layer.
func (n *Network) BN(in int) int {
	return n.Add(&Layer{Kind: KindBatchNorm, Inputs: []int{in}})
}

// LN adds a layer-normalization layer.
func (n *Network) LN(in int) int {
	return n.Add(&Layer{Kind: KindLayerNorm, Inputs: []int{in}})
}

// ReLU adds a ReLU activation.
func (n *Network) ReLU(in int) int {
	return n.Add(&Layer{Kind: KindReLU, Inputs: []int{in}})
}

// ReLU6 adds a ReLU6 activation (MobileNet family).
func (n *Network) ReLU6(in int) int {
	return n.Add(&Layer{Kind: KindReLU6, Inputs: []int{in}})
}

// GELU adds a GELU activation (transformers).
func (n *Network) GELU(in int) int {
	return n.Add(&Layer{Kind: KindGELU, Inputs: []int{in}})
}

// Softmax adds a softmax over the last dimension.
func (n *Network) Softmax(in int) int {
	return n.Add(&Layer{Kind: KindSoftmax, Inputs: []int{in}})
}

// MaxPool adds a 2-D max pooling layer.
func (n *Network) MaxPool(in, k, stride, pad int) int {
	return n.Add(&Layer{Kind: KindMaxPool2D, Inputs: []int{in}, KH: k, KW: k, Stride: stride, Pad: pad})
}

// AvgPool adds a 2-D average pooling layer.
func (n *Network) AvgPool(in, k, stride, pad int) int {
	return n.Add(&Layer{Kind: KindAvgPool2D, Inputs: []int{in}, KH: k, KW: k, Stride: stride, Pad: pad})
}

// GlobalAvgPool adds an adaptive average pool to 1×1.
func (n *Network) GlobalAvgPool(in int) int {
	return n.Add(&Layer{Kind: KindGlobalAvgPool, Inputs: []int{in}})
}

// Flatten collapses all non-batch dimensions.
func (n *Network) Flatten(in int) int {
	return n.Add(&Layer{Kind: KindFlatten, Inputs: []int{in}})
}

// Linear adds a fully connected layer.
func (n *Network) Linear(in, inFeatures, outFeatures int) int {
	return n.Add(&Layer{Kind: KindLinear, Inputs: []int{in},
		InFeatures: inFeatures, OutFeatures: outFeatures})
}

// Residual adds an elementwise Add joining two branches.
func (n *Network) Residual(a, b int) int {
	return n.Add(&Layer{Kind: KindAdd, Inputs: []int{a, b}})
}

// Concat adds a channel-dimension concatenation of the given branches.
func (n *Network) Concat(ins ...int) int {
	inputs := make([]int, len(ins))
	copy(inputs, ins)
	return n.Add(&Layer{Kind: KindConcat, Inputs: inputs})
}

// Dropout adds a dropout layer (a no-op at inference, kept for structural
// fidelity with the source models).
func (n *Network) Dropout(in int) int {
	return n.Add(&Layer{Kind: KindDropout, Inputs: []int{in}})
}

// ChannelShuffle adds a ShuffleNet-style channel shuffle.
func (n *Network) ChannelShuffle(in, groups int) int {
	return n.Add(&Layer{Kind: KindChannelShuffle, Inputs: []int{in}, Groups: groups})
}

// Embedding adds a token-embedding lookup layer.
func (n *Network) Embedding(in, vocab, dim int) int {
	return n.Add(&Layer{Kind: KindEmbedding, Inputs: []int{in}, VocabSize: vocab, EmbedDim: dim})
}

// MatMul adds a batched attention matmul of inputs a and b.
func (n *Network) MatMul(a, b, heads int, transposeB bool) int {
	return n.Add(&Layer{Kind: KindMatMul, Inputs: []int{a, b}, Heads: heads, TransposeB: transposeB})
}

// Sigmoid adds a sigmoid activation.
func (n *Network) Sigmoid(in int) int {
	return n.Add(&Layer{Kind: KindSigmoid, Inputs: []int{in}})
}

// Output returns the index of the network's output layer (the last layer).
func (n *Network) Output() int { return len(n.Layers) - 1 }

// Batch returns the batch size the inferred shapes describe (the last
// successful Infer or Rebatch), or 0 if shapes are not inferred.
func (n *Network) Batch() int { return n.batch }

// Infer runs static shape inference at the given batch size, populating every
// layer's InShape/InShapes/OutShape. It validates the DAG (topological input
// references) and per-layer parameter/shape consistency.
func (n *Network) Infer(batch int) error {
	if batch <= 0 {
		return fmt.Errorf("dnn: network %q: batch size %d must be positive", n.Name, batch)
	}
	if len(n.Layers) == 0 {
		return fmt.Errorf("dnn: network %q has no layers", n.Name)
	}
	if !n.InputShape.Valid() {
		return fmt.Errorf("dnn: network %q has invalid input shape %s", n.Name, n.InputShape)
	}
	netIn := n.InputShape.WithBatch(batch)

	// Layers are rewritten one by one, so until the pass completes the
	// shapes describe no single batch size.
	n.batch = 0
	for i, l := range n.Layers {
		if err := l.validate(); err != nil {
			return err
		}
		ins := make([]Shape, len(l.Inputs))
		for j, src := range l.Inputs {
			switch {
			case src == NetworkInput:
				ins[j] = netIn
			case src >= 0 && src < i:
				ins[j] = n.Layers[src].OutShape
			default:
				return fmt.Errorf("dnn: network %q: layer %d (%q) references input %d (must be < %d or NetworkInput)",
					n.Name, i, l.Name, src, i)
			}
		}
		out, err := inferLayer(l, ins)
		if err != nil {
			return fmt.Errorf("dnn: network %q: layer %d (%q): %w", n.Name, i, l.Name, err)
		}
		l.InShape = ins[0]
		l.InShapes = ins
		l.OutShape = out
		if err := n.checkLayer(i, batch); err != nil {
			return err
		}
	}
	n.batch = batch
	return nil
}

// Rebatch moves an inferred network to another batch size in place: it
// rewrites every layer's batch dimension (Layer.Rebatch) and re-checks each
// layer's counts, which is all that changes with the batch size — every
// structural check Infer makes is batch-invariant. It succeeds and fails
// exactly where Infer(batch) would, with Infer's error, and allocates
// nothing. A network that has not been inferred (or whose last Infer or
// Rebatch failed) is an error.
func (n *Network) Rebatch(batch int) error {
	if batch <= 0 {
		return fmt.Errorf("dnn: network %q: batch size %d must be positive", n.Name, batch)
	}
	if n.batch == 0 {
		return fmt.Errorf("dnn: network %q: Rebatch needs inferred shapes; call Infer first", n.Name)
	}
	n.batch = 0
	for i, l := range n.Layers {
		l.Rebatch(batch)
		if err := n.checkLayer(i, batch); err != nil {
			return err
		}
	}
	n.batch = batch
	return nil
}

// checkLayer is layer i's count check at the given batch size, with the
// error Infer and Rebatch share.
func (n *Network) checkLayer(i, batch int) error {
	l := n.Layers[i]
	if err := l.checkCounts(); err != nil {
		return fmt.Errorf("dnn: network %q: layer %d (%q) at batch %d: %w", n.Name, i, l.Name, batch, err)
	}
	return nil
}

// inferLayer computes the output shape of a layer from its input shapes.
func inferLayer(l *Layer, ins []Shape) (Shape, error) {
	in := ins[0]
	switch l.Kind {
	case KindConv2D:
		if in.Rank() != 4 {
			return nil, fmt.Errorf("conv expects NCHW input, got %s", in)
		}
		if in[1] != l.Cin {
			return nil, fmt.Errorf("conv expects %d input channels, got %d", l.Cin, in[1])
		}
		if in[2]+2*l.Pad < l.KH || in[3]+2*l.Pad < l.KW {
			return nil, fmt.Errorf("conv kernel %dx%d exceeds padded input %s", l.KH, l.KW, in)
		}
		oh := convOut(in[2], l.KH, l.Stride, l.Pad)
		ow := convOut(in[3], l.KW, l.Stride, l.Pad)
		if oh <= 0 || ow <= 0 {
			return nil, fmt.Errorf("conv output spatial size %dx%d is non-positive for input %s", oh, ow, in)
		}
		return Shape{in[0], l.Cout, oh, ow}, nil

	case KindMaxPool2D, KindAvgPool2D:
		if in.Rank() != 4 {
			return nil, fmt.Errorf("pool expects NCHW input, got %s", in)
		}
		if in[2]+2*l.Pad < l.KH || in[3]+2*l.Pad < l.KW {
			return nil, fmt.Errorf("pool window %dx%d exceeds padded input %s", l.KH, l.KW, in)
		}
		oh := convOut(in[2], l.KH, l.Stride, l.Pad)
		ow := convOut(in[3], l.KW, l.Stride, l.Pad)
		if oh <= 0 || ow <= 0 {
			return nil, fmt.Errorf("pool output spatial size %dx%d is non-positive for input %s", oh, ow, in)
		}
		return Shape{in[0], in[1], oh, ow}, nil

	case KindGlobalAvgPool:
		if in.Rank() != 4 {
			return nil, fmt.Errorf("global pool expects NCHW input, got %s", in)
		}
		return Shape{in[0], in[1], 1, 1}, nil

	case KindBatchNorm:
		if in.Rank() < 2 {
			return nil, fmt.Errorf("batchnorm expects rank ≥ 2 input, got %s", in)
		}
		return in.Clone(), nil

	case KindLayerNorm, KindReLU, KindReLU6, KindGELU, KindSigmoid,
		KindSoftmax, KindDropout, KindIdentity:
		return in.Clone(), nil

	case KindChannelShuffle:
		if in.Rank() != 4 {
			return nil, fmt.Errorf("channel shuffle expects NCHW input, got %s", in)
		}
		if in[1]%l.Groups != 0 {
			return nil, fmt.Errorf("channel shuffle: %d channels not divisible by %d groups", in[1], l.Groups)
		}
		return in.Clone(), nil

	case KindFlatten:
		if in.Rank() < 2 {
			return nil, fmt.Errorf("flatten expects rank ≥ 2 input, got %s", in)
		}
		f := int64(1)
		for _, d := range in[1:] {
			f *= int64(d)
		}
		return Shape{in[0], int(f)}, nil

	case KindLinear:
		last := in[len(in)-1]
		if last != l.InFeatures {
			return nil, fmt.Errorf("linear expects %d input features, got %d (input %s)", l.InFeatures, last, in)
		}
		out := in.Clone()
		out[len(out)-1] = l.OutFeatures
		return out, nil

	case KindAdd:
		for _, s := range ins[1:] {
			if !s.Equal(in) {
				return nil, fmt.Errorf("add inputs have mismatched shapes %s vs %s", in, s)
			}
		}
		return in.Clone(), nil

	case KindConcat:
		if in.Rank() < 2 {
			return nil, fmt.Errorf("concat expects rank ≥ 2 inputs, got %s", in)
		}
		out := in.Clone()
		for _, s := range ins[1:] {
			if s.Rank() != in.Rank() {
				return nil, fmt.Errorf("concat inputs have mismatched ranks %s vs %s", in, s)
			}
			for d := range s {
				if d != 1 && s[d] != in[d] {
					return nil, fmt.Errorf("concat inputs differ outside channel dim: %s vs %s", in, s)
				}
			}
			out[1] += s[1]
		}
		return out, nil

	case KindReshapeTokens:
		// (N, D, H, W) → (N, T=H·W, D): the zero-copy view a vision
		// transformer uses between its patch embedding and its encoder.
		if in.Rank() != 4 {
			return nil, fmt.Errorf("token reshape expects NCHW input, got %s", in)
		}
		return Shape{in[0], in[2] * in[3], in[1]}, nil

	case KindEmbedding:
		if in.Rank() != 2 {
			return nil, fmt.Errorf("embedding expects (N, T) token input, got %s", in)
		}
		return Shape{in[0], in[1], l.EmbedDim}, nil

	case KindMatMul:
		// Attention matmuls over (N, T, D) activations split into l.Heads
		// heads of width D/heads.
		a, b := ins[0], ins[1]
		if a.Rank() != 3 || b.Rank() != 3 {
			return nil, fmt.Errorf("matmul expects (N, T, D) inputs, got %s and %s", a, b)
		}
		if a[0] != b[0] || a[1] != b[1] {
			return nil, fmt.Errorf("matmul batch/sequence mismatch: %s vs %s", a, b)
		}
		if l.TransposeB {
			// scores: (N, h, T, d) × (N, h, d, T) → per-head (T, T); we
			// represent the result as (N, T, heads*T).
			return Shape{a[0], a[1], l.Heads * a[1]}, nil
		}
		// context: (N, h, T, T) × (N, h, T, d) → (N, T, D).
		if a[2] != l.Heads*a[1] {
			return nil, fmt.Errorf("context matmul expects scores of width heads*T=%d, got %d", l.Heads*a[1], a[2])
		}
		return Shape{b[0], b[1], b[2]}, nil
	}
	return nil, fmt.Errorf("unknown layer kind %q", l.Kind)
}

// convOut computes the output spatial extent of a convolution/pool dimension.
func convOut(in, k, stride, pad int) int {
	return (in+2*pad-k)/stride + 1
}

// WeightBytes returns the total parameter footprint of the network in bytes,
// assuming 4-byte (FP32) weights.
func (n *Network) WeightBytes() int64 {
	var total int64
	for _, l := range n.Layers {
		total += 4 * l.WeightCount()
	}
	return total
}

// ActivationBytes returns the total activation traffic of one forward pass in
// bytes (sum of every layer's output tensor), assuming FP32. Requires Infer.
func (n *Network) ActivationBytes() int64 {
	var total int64
	for _, l := range n.Layers {
		total += 4 * l.OutShape.Numel()
	}
	return total
}

// PeakActivationBytes returns a simple peak-memory estimate: the two largest
// layer outputs (producer + consumer live simultaneously), assuming FP32.
func (n *Network) PeakActivationBytes() int64 {
	var max1, max2 int64
	for _, l := range n.Layers {
		b := 4 * l.OutShape.Numel()
		if b > max1 {
			max1, max2 = b, max1
		} else if b > max2 {
			max2 = b
		}
	}
	return max1 + max2
}

// Validate runs shape inference at batch size 1 purely as a structural check.
func (n *Network) Validate() error { return n.Infer(1) }

// Clone deep-copies the network structure (layers and input references) with
// shape state reset, so inference on the clone never races or disturbs the
// original. Callers that need shapes run Infer on the clone.
func (n *Network) Clone() *Network {
	c := New(n.Name, n.Family, n.Task, n.InputShape)
	// One allocation holds every layer and one every input list: dataset
	// collection clones every network it profiles.
	layers := make([]Layer, len(n.Layers))
	nIn := 0
	for _, l := range n.Layers {
		nIn += len(l.Inputs)
	}
	inputs := make([]int, 0, nIn)
	c.Layers = make([]*Layer, 0, len(n.Layers))
	for i, l := range n.Layers {
		lc := &layers[i]
		*lc = *l
		start := len(inputs)
		inputs = append(inputs, l.Inputs...)
		lc.Inputs = inputs[start:len(inputs):len(inputs)]
		lc.InShape = nil
		lc.InShapes = nil
		lc.OutShape = nil
		c.Add(lc)
	}
	return c
}
