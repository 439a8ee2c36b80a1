package dnn

import "fmt"

// FLOPs conventions follow the paper (§2.2): FLOPs counts floating-point
// *multiplications* required by the theoretical algorithm, as produced by
// PyTorch-OpCounter. For a convolution this is N·Cout·H'·W'·(Cin/g)·Kh·Kw;
// elementwise and normalization layers count one (or a few) operations per
// element so that the layer-wise model has a non-degenerate regressor for
// every layer type.

// Per-element operation weights for non-GEMM layers. These are fixed
// conventions, not tuned values: they only scale the x-axis of each layer
// type's regression line.
const (
	flopsPerElemBN      = 2 // scale + shift
	flopsPerElemLN      = 4 // mean/var accumulate + normalize + affine
	flopsPerElemAct     = 1
	flopsPerElemGELU    = 4 // tanh-approximation polynomial
	flopsPerElemSoftmax = 3 // exp + sum + divide
	flopsPerElemAdd     = 1
)

// LayerFLOPs returns the theoretical FLOPs of a layer at its inferred shapes.
// The network must have been inferred (Network.Infer) first; layers with
// un-inferred shapes return 0.
func LayerFLOPs(l *Layer) int64 { return layerFLOPs(l).v }

// layerFLOPs is LayerFLOPs with overflow tracking.
func layerFLOPs(l *Layer) count {
	if len(l.OutShape) == 0 {
		return count{}
	}
	switch l.Kind {
	case KindConv2D:
		g := l.Groups
		if g == 0 {
			g = 1
		}
		// N · Cout · H' · W' · (Cin/g) · Kh · Kw
		out := l.OutShape
		return count{v: int64(out[0])}.times(int64(out[1])).times(int64(out[2])).times(int64(out[3])).
			times(int64(l.Cin / g)).times(int64(l.KH)).times(int64(l.KW))

	case KindLinear:
		// Every position in the output multiplies an InFeatures-long vector.
		return l.OutShape.numel().times(int64(l.InFeatures))

	case KindBatchNorm:
		return l.OutShape.numel().times(flopsPerElemBN)

	case KindLayerNorm:
		return l.OutShape.numel().times(flopsPerElemLN)

	case KindReLU, KindReLU6, KindSigmoid:
		return l.OutShape.numel().times(flopsPerElemAct)

	case KindGELU:
		return l.OutShape.numel().times(flopsPerElemGELU)

	case KindSoftmax:
		return l.OutShape.numel().times(flopsPerElemSoftmax)

	case KindMaxPool2D, KindAvgPool2D:
		// One comparison/accumulate per window element per output element.
		return l.OutShape.numel().times(int64(l.KH)).times(int64(l.KW))

	case KindGlobalAvgPool:
		// One accumulate per input element.
		return l.InShape.numel()

	case KindAdd:
		return l.OutShape.numel().times(flopsPerElemAdd)

	case KindMatMul:
		// Per head: (T × d) · (d × T) or (T × T) · (T × d); both cost T·T·d
		// multiplications, d = D/heads.
		a := l.InShapes[0]
		n, t := int64(a[0]), int64(a[1])
		var d int64
		if l.TransposeB {
			d = int64(a[2]) / int64(l.Heads)
		} else {
			d = int64(l.InShapes[1][2]) / int64(l.Heads)
		}
		return count{v: n}.times(int64(l.Heads)).times(t).times(t).times(d)
	}
	// Data-movement-only layers (Concat, Flatten, Dropout, ChannelShuffle,
	// Embedding, ReshapeTokens, Identity): zero arithmetic by the thop
	// convention.
	return count{}
}

// TotalFLOPs returns the sum of LayerFLOPs over the whole network at its
// inferred batch size. It returns an error if shapes are not inferred or the
// sum overflows int64.
func (n *Network) TotalFLOPs() (int64, error) {
	if n.batch == 0 {
		return 0, fmt.Errorf("dnn: network %q: TotalFLOPs requires Infer", n.Name)
	}
	var total count
	for _, l := range n.Layers {
		total = total.plus(layerFLOPs(l))
	}
	if total.overflow() {
		return 0, fmt.Errorf("dnn: network %q: total FLOPs at batch %d overflow int64", n.Name, n.batch)
	}
	return total.v, nil
}

// FLOPsAt is a convenience that infers the network at the given batch size
// and returns the total FLOPs.
func (n *Network) FLOPsAt(batch int) (int64, error) {
	if err := n.Infer(batch); err != nil {
		return 0, err
	}
	return n.TotalFLOPs()
}
