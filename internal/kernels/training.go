package kernels

import "repro/internal/dnn"

// Training-mode kernel generation — the paper's stated future work ("our
// future work will focus on extending our models for more diverse workloads
// (e.g., training)", §9). A training step dispatches, per layer, the forward
// kernels plus the backward pipeline a cuDNN-like library uses:
//
//   - convolution: a data-gradient kernel (dgrad) and a filter-gradient
//     kernel (wgrad), each costing about one forward pass;
//   - GEMM layers: two backward GEMMs (dX = dY·Wᵀ, dW = Xᵀ·dY);
//   - normalization/activation/pooling: one elementwise/reduction backward
//     kernel over the gradient tensor;
//   - weighted layers additionally run an optimizer-update kernel.
//
// Backward kernels get their own names (and therefore their own device
// efficiency profiles and regression models), exactly like the distinct
// *_bwd_* kernels cuDNN exposes.

// ForLayerTraining returns the kernels of one training step for a layer:
// the forward sequence followed by the backward and optimizer kernels.
func ForLayerTraining(l *dnn.Layer) []Kernel {
	li := infoOf(l)
	return appendBackward(appendForward(nil, l, &li), l, &li)
}

// appendBackward appends the layer's gradient kernels, then its optimizer
// update if it has weights, to dst.
func appendBackward(dst []Kernel, l *dnn.Layer, li *layerInfo) []Kernel {
	dst = appendGradients(dst, l, li)
	if l.HasWeights() {
		// The per-layer SGD update; the driver of an optimizer kernel is the
		// parameter count.
		w := l.WeightCount()
		dst = append(dst, Kernel{
			Name:             "sgd_update",
			Class:            ClassOutput,
			FLOPs:            2 * w, // momentum + update
			BytesRead:        2 * w * elemBytes,
			BytesWritten:     w * elemBytes,
			LayerFLOPs:       li.flops,
			LayerInputElems:  w,
			LayerOutputElems: w,
		})
	}
	return dst
}

// appendGradients appends the kernels of the layer's gradient computation.
func appendGradients(dst []Kernel, l *dnn.Layer, li *layerInfo) []Kernel {
	inBytes := li.inElems * elemBytes
	outBytes := li.outElems * elemBytes

	switch l.Kind {
	case dnn.KindConv2D:
		t := gemmTile(li.outElems/int64(l.Cout), int64(l.Cout))
		names := convGradNames[SelectConvAlgorithm(l)]
		// dgrad reads the output gradient and weights, writes the input
		// gradient; wgrad reads input and output gradient, writes the
		// filter gradient. Both cost about one forward pass.
		return append(dst,
			li.kernel(names[0][t], ClassOperation, li.flops, outBytes+li.weightBytes, inBytes),
			li.kernel(names[1][t], ClassOperation, li.flops, inBytes+outBytes, li.weightBytes))

	case dnn.KindLinear:
		t := gemmTile(li.outElems/int64(l.OutFeatures), int64(l.InFeatures))
		return append(dst,
			li.kernel(sgemmBwdDataNames[t], ClassOperation, li.flops, outBytes+li.weightBytes, inBytes),
			li.kernel(sgemmBwdFilterNames[t], ClassOperation, li.flops, inBytes+outBytes, li.weightBytes))

	case dnn.KindBatchNorm:
		return append(dst, li.kernel("bn_bwd", ClassInput, 4*li.inElems, 2*inBytes, inBytes))

	case dnn.KindLayerNorm:
		return append(dst, li.kernel("layernorm_bwd", ClassInput, 6*li.inElems, 2*inBytes, inBytes))

	case dnn.KindReLU, dnn.KindReLU6, dnn.KindSigmoid, dnn.KindGELU:
		_, name := activationNames(l.Kind)
		return append(dst, li.kernel(name, ClassOutput, li.outElems, 2*outBytes, outBytes))

	case dnn.KindSoftmax:
		return append(dst, li.kernel("softmax_bwd", ClassOutput, 3*li.outElems, 2*outBytes, outBytes))

	case dnn.KindMaxPool2D:
		return append(dst, li.kernel("pooling_bwd_max", ClassInput, li.inElems, outBytes+inBytes, inBytes))

	case dnn.KindAvgPool2D:
		return append(dst, li.kernel("pooling_bwd_avg", ClassInput, li.inElems, outBytes+inBytes, inBytes))

	case dnn.KindGlobalAvgPool:
		return append(dst, li.kernel("reduce_spatial_bwd", ClassInput, li.inElems, outBytes, inBytes))

	case dnn.KindAdd:
		// Gradient passes through; a copy per branch.
		return append(dst, li.kernel("elementwise_add_bwd", ClassOutput, 0, outBytes, inBytes))

	case dnn.KindConcat:
		return append(dst, li.kernel("cat_split_bwd", ClassOutput, 0, outBytes, inBytes))

	case dnn.KindChannelShuffle:
		return append(dst, li.kernel("channel_shuffle_bwd", ClassOutput, 0, outBytes, outBytes))

	case dnn.KindEmbedding:
		// Scatter-add of token gradients into the embedding table.
		return append(dst, li.kernel("embedding_scatter_bwd", ClassOutput, li.outElems, outBytes, outBytes))

	case dnn.KindMatMul:
		tl := int64(l.InShapes[0][1])
		t := gemmTile(tl, tl)
		return append(dst,
			li.kernel(batchedGEMMBwdANames[t], ClassOperation, li.flops, outBytes+inBytes/2, inBytes/2),
			li.kernel(batchedGEMMBwdBNames[t], ClassOperation, li.flops, outBytes+inBytes/2, inBytes/2))
	}
	// Views have no gradient kernels.
	return dst
}
