package core

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/dnn"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/regression"
	"repro/internal/units"
)

// Compiled prediction plans. A Plan is the result of running shape inference
// and layer→kernel resolution once for a (network, model) pair and reducing
// every kernel to the data its prediction actually needs: a resolved
// regression line plus the affine map from batch size to the kernel's driver
// variable. Predicting at any batch size is then a single allocation-free
// pass over a flat segment slice — no Infer call, no map lookups, no
// goroutine-visible mutation — which is what makes the models safe and fast
// to query concurrently.
//
// Why an affine map suffices: every driver candidate (layer input elements,
// layer FLOPs, layer output elements) is an exact affine function of the
// batch size N. Activation tensors carry N as their leading dimension, so
// element counts and FLOPs are proportional to N; the one exception, the
// optimizer kernel whose driver is the (batch-independent) parameter count,
// is the constant special case. Two shape inferences — at N=1 and N=2 —
// therefore determine each driver exactly at every batch size, in integer
// arithmetic, so the compiled path reproduces the uncached path bit for bit.
//
// Why segments: the *identity* of a kernel (its name, and therefore which
// regression line resolves for it) can change with batch size in exactly two
// ways — GEMM tile variants switch at known row-count thresholds
// (kernels.BatchBreakpoints), and the learned mapping table can substitute
// traced names only at the batch sizes embedded in its signatures. The
// compiler enumerates each layer's finite breakpoint set, resolves the layer
// at each, and stores one segment per distinct resolution; adjacent identical
// resolutions merge, so most entries hold a single segment.

// planSeg is one kernel's resolution over a half-open batch range
// [minBatch, nextSeg.minBatch): the regression line and the affine driver
// map x(N) = xPer·N + xConst.
type planSeg struct {
	minBatch     int
	xPer, xConst int64
	line         regression.Line
}

// Plan is a compiled predictor for one network on one model. It is immutable
// after compilation and safe for concurrent use.
type Plan struct {
	// Network and GPU identify what the plan predicts.
	Network string
	GPU     string

	// segs holds every entry's segments back to back, each entry's sorted by
	// ascending minBatch (the first always has minBatch 1); entryEnd[i] is
	// the end offset of entry i's segments within segs.
	segs     []planSeg
	entryEnd []int32
	// maxBatch is the plan's batch domain: the largest batch size, at most
	// MaxBatch, at which every driver of every kernel stays inside int64.
	maxBatch int
}

// MaxBatch returns the largest batch size the plan can predict: MaxBatch,
// or less for a network so large that a kernel driver would leave int64
// below it.
func (p *Plan) MaxBatch() int { return p.maxBatch }

// EntryCount returns the number of kernel invocations the plan sums over.
func (p *Plan) EntryCount() int { return len(p.entryEnd) }

// SegmentCount returns the total number of batch-range segments; it exceeds
// EntryCount only when some kernel resolves differently across batch sizes.
func (p *Plan) SegmentCount() int { return len(p.segs) }

// MaxBatch is the largest batch size the KW and IGKW prediction paths
// accept. A plan evaluates each kernel's driver as xPer·N + xConst in int64
// with no check on the hot path, so the batch domain is bounded instead. At
// 2^20 the largest driver of any zoo network stays orders of magnitude
// inside int64 (TestPlanMaxBatchNoOverflow), but an inline spec can be large
// enough to wrap well below it, so each plan also carries its own domain
// (Plan.MaxBatch): the largest batch up to MaxBatch at which all its drivers
// fit. Batches beyond either bound are rejected with an error rather than
// wrapped into a garbage prediction that clampTime would silently floor;
// dnnperf serve answers them with 422.
const MaxBatch = 1 << 20

// errBatchTooLarge is the error for a batch size above limit, MaxBatch or
// a plan's own domain.
func errBatchTooLarge(model, network string, batch, limit int) error {
	return fmt.Errorf("core: %s prediction of %q: batch size %d exceeds the maximum %d", model, network, batch, limit)
}

// Predict returns the predicted end-to-end seconds of one batch. The batch
// size must be in [1, p.MaxBatch()] (callers route other batches through the
// uncached path for its validation errors). It performs no allocation and is
// safe to call concurrently.
//
//dnnperf:allocfree
func (p *Plan) Predict(batch int) units.Seconds {
	var total units.Seconds
	start := 0
	for _, e := range p.entryEnd {
		end := int(e)
		seg := &p.segs[start]
		for i := end - 1; i > start; i-- {
			if p.segs[i].minBatch <= batch {
				seg = &p.segs[i]
				break
			}
		}
		x := float64(seg.xPer*int64(batch) + seg.xConst)
		total += clampTime(units.Seconds(seg.line.Predict(x)))
		start = end
	}
	return total
}

// PredictSweep predicts every batch size in batches in one pass, returning
// one total per batch in input order. Results are bit-identical to calling
// Predict per batch: per output slot the same terms accumulate in the same
// entry order through the same expression. The win over the loop is
// locality — each entry's segments are resolved once and applied to every
// batch size while still hot, and most entries hit the single-segment fast
// path where the segment lives in registers across the whole sweep.
func (p *Plan) PredictSweep(batches []int) []units.Seconds {
	out := make([]units.Seconds, len(batches))
	p.PredictSweepInto(out, batches)
	return out
}

// PredictSweepInto is PredictSweep writing into dst (which must have at
// least len(batches) elements), for callers that reuse buffers. It performs
// no allocation and is safe to call concurrently.
//
//dnnperf:allocfree
func (p *Plan) PredictSweepInto(dst []units.Seconds, batches []int) {
	dst = dst[:len(batches)]
	for j := range dst {
		dst[j] = 0
	}
	start := 0
	for _, e := range p.entryEnd {
		end := int(e)
		if end == start+1 {
			seg := p.segs[start]
			for j, batch := range batches {
				x := float64(seg.xPer*int64(batch) + seg.xConst)
				dst[j] += clampTime(units.Seconds(seg.line.Predict(x)))
			}
			start = end
			continue
		}
		for j, batch := range batches {
			seg := &p.segs[start]
			for i := end - 1; i > start; i-- {
				if p.segs[i].minBatch <= batch {
					seg = &p.segs[i]
					break
				}
			}
			x := float64(seg.xPer*int64(batch) + seg.xConst)
			dst[j] += clampTime(units.Seconds(seg.line.Predict(x)))
		}
		start = end
	}
}

// kernelResolve maps a kernel name (plus whether its layer carries zero
// FLOPs, which steers the last-resort fallback) to the concrete regression
// line and driver the model would use — the model-specific half of plan
// compilation.
type kernelResolve func(name string, flopsZero bool) (regression.Line, Driver)

// driverAffine holds the affine batch→value maps of one kernel's three
// driver candidates.
type driverAffine struct {
	inPer, inConst   int64
	opPer, opConst   int64
	outPer, outConst int64
}

func (a driverAffine) pick(d Driver) (per, cnst int64) {
	switch d {
	case DriverInput:
		return a.inPer, a.inConst
	case DriverOperation:
		return a.opPer, a.opConst
	default:
		return a.outPer, a.outConst
	}
}

// distLayer is the compiled form of one distinct layer shape: its kernels'
// segments back to back (each kernel's ascending by minBatch), the
// per-kernel end offsets within segs — the same layout Plan uses globally —
// and the layer's own batch domain, the largest batch up to MaxBatch at
// which every driver candidate of its kernels fits in int64. A distLayer is
// never written after layerCompiler.compile returns it, so plans and the
// layer memo share it freely.
type distLayer struct {
	segs     []planSeg
	end      []int32
	maxBatch int
}

// layerMemoCapacity bounds each model's layer memo: 16 times the plan
// cache's default capacity. serve-novel traffic (seed 21) has 2,943 distinct
// conv/BatchNorm/ReLU layer shapes across 30,000 never-repeated specs.
const layerMemoCapacity = 16 * cache.DefaultCapacity

// layerShapeKey keys a model's layer memo: the exact batch-1 rendering of
// appendLayerShapeKey (exact, so two different layers can never share a
// compilation) and its hash for shard selection.
type layerShapeKey struct {
	key string
	h   uint64
}

// Hash implements cache.Hasher.
func (k layerShapeKey) Hash() uint64 { return k.h }

// newLayerShapeKey builds the memo key of one batch-1 shape key.
func newLayerShapeKey(key string) layerShapeKey {
	h := fnv64(fnvOffset64)
	h.str(key)
	return layerShapeKey{key: key, h: uint64(h)}
}

// compilePlan builds a Plan for the network. It works on a private clone, so
// the caller's network is never mutated (and concurrent compilations of the
// same network cannot race). mapBatches is the model's sorted set of batch
// sizes embedded in mapping signatures (see mappingBatches); memo is the
// model's layer memo.
//
// The compiler exploits four structural facts to stay cheap. First,
// networks repeat layers: ResNet/DenseNet instantiate the same (kind,
// parameters, shapes) block dozens of times, and two layers that agree on all
// of those at batch 1 agree at every batch size (shapes differ across batches
// only in dimension 0), so they resolve to identical segment lists. Each
// distinct shape is compiled once and duplicates copy its segments. Second,
// the same holds across networks under one model: the mapping table,
// mapping batches and resolution are model-constant, so a layer shape any
// earlier plan of the model compiled is copied from the memo rather than
// compiled again — never-seen networks mostly reuse layer shapes the model
// has already seen. Third, a layer's kernel resolution depends only on its
// own shapes, so instead of re-running full-network shape inference at
// every batch breakpoint the compiler infers once at batch 1 and then
// rewrites one layer's batch dimension at a time (Layer.Rebatch, exact by
// construction). Fourth, a layer's resolution can change only at its own
// breakpoints: its GEMM tile thresholds (kernels.BatchBreakpoints) and the
// mapping batches B at which its signature is actually in the table — a
// signature embeds the batch as its first shape dimension, so the
// substitution starts applying at B and stops at B+1. Each distinct layer
// is resolved at exactly {1} ∪ BatchBreakpoints ∪ {B, B+1}; a network-wide
// breakpoint set would only add points where nothing changes, which the
// segment merge then discards, so the segments (minBatch, line, driver map)
// are the same either way. Segment scratch lives in a preallocated arena
// reused across layers, and signature/memo keys are built in reused byte
// buffers looked up with the map[string(buf)] idiom, so the per-layer
// map+string churn of the naive compiler is gone.
func compilePlan(n *dnn.Network, gpuName string, training bool, mapping map[string][]string,
	mapBatches []int, resolve kernelResolve, memo *cache.Sharded[layerShapeKey, distLayer]) (*Plan, error) {

	tm := obs.StartTimer(metricPlanCompile)
	defer tm.Stop()
	sp := obs.StartSpan("plan-compile " + n.Name)
	sp.SetArg("gpu", gpuName)
	defer sp.End()
	metricPlanCompiles.Inc()

	clone := n.Clone()
	// The only full shape inference; every other batch size is reached by
	// rewriting one layer's batch dimension in place.
	if err := clone.Infer(1); err != nil {
		return nil, err
	}

	// Deduplicate layers by their exact batch-1 shape key. The key must be
	// exact — a hash could collide two genuinely different layers and
	// silently corrupt the plan — so it is the full parameter and shape
	// rendering, and only the first occurrence pays the string copy, which
	// then keys both this map and the model's memo. Every key is taken
	// before any layer is rebatched: a layer's input shapes can alias its
	// producer's output shape.
	distinct := make(map[string]int, len(clone.Layers))
	reps := make([]int, 0, len(clone.Layers))
	repKeys := make([]string, 0, len(clone.Layers))
	repOf := make([]int, len(clone.Layers))
	var keyBuf []byte
	for i, l := range clone.Layers {
		keyBuf = appendLayerShapeKey(keyBuf[:0], l)
		d, ok := distinct[string(keyBuf)]
		if !ok {
			d = len(reps)
			key := string(keyBuf)
			distinct[key] = d
			reps = append(reps, i)
			repKeys = append(repKeys, key)
		}
		repOf[i] = d
	}

	// Take each distinct layer from the memo, compiling (and storing) the
	// shapes the model has not compiled before. Concurrent compiles of one
	// shape share a single compilation.
	lc := layerCompiler{dispatch: kernels.ForLayer, mapping: mapping, mapBatches: mapBatches, resolve: resolve}
	if training {
		lc.dispatch = kernels.ForLayerTraining
	}
	dists := make([]distLayer, len(reps))
	maxBatch := MaxBatch
	for di, ri := range reps {
		l := clone.Layers[ri]
		dl, err := memo.GetOrCompute(newLayerShapeKey(repKeys[di]), func() (distLayer, error) {
			return lc.compile(l)
		})
		if err != nil {
			return nil, fmt.Errorf("core: plan compile %q: %w", n.Name, err)
		}
		dists[di] = dl
		maxBatch = min(maxBatch, dl.maxBatch)
	}

	// Assemble the plan by walking the layers in network order, copying each
	// one's distinct compilation — the same segment values, in the same
	// order, the per-breakpoint full-network compiler produced.
	totalSegs, totalEntries := 0, 0
	for _, d := range repOf {
		totalSegs += len(dists[d].segs)
		totalEntries += len(dists[d].end)
	}
	p := &Plan{Network: n.Name, GPU: gpuName, maxBatch: maxBatch}
	p.segs = make([]planSeg, 0, totalSegs)
	p.entryEnd = make([]int32, 0, totalEntries)
	for _, d := range repOf {
		dl := &dists[d]
		base := int32(len(p.segs))
		p.segs = append(p.segs, dl.segs...)
		for _, e := range dl.end {
			p.entryEnd = append(p.entryEnd, base+e)
		}
	}
	return p, nil
}

// layerCompiler resolves distinct layers for one plan compile: the model's
// dispatch, mapping table, mapping batches and kernel resolution, plus
// scratch reused across the layers it compiles. Scratch segment storage is
// one arena sliced into non-overlapping per-kernel append regions.
type layerCompiler struct {
	dispatch   func(*dnn.Layer) []kernels.Kernel
	mapping    map[string][]string
	mapBatches []int
	resolve    kernelResolve

	arena       []planSeg
	kernSegs    [][]planSeg
	affine      []driverAffine
	sigBuf      []byte
	breakpoints []int
	hits        []mappingHit
}

// compile resolves one layer's kernels at each of its own breakpoints,
// merging adjacent identical resolutions. The layer must hold its batch-1
// shapes; compile leaves it rebatched.
func (c *layerCompiler) compile(l *dnn.Layer) (distLayer, error) {
	d := distLayer{maxBatch: MaxBatch}

	// Kernel lists at N=1 and N=2 determine each driver's affine map.
	l.Rebatch(1)
	ks1 := c.dispatch(l)
	nk := len(ks1)
	if nk == 0 {
		return d, nil // shape-only layer (Flatten, Dropout, ...): no entries
	}
	l.Rebatch(2)
	ks2 := c.dispatch(l)
	if len(ks2) != nk {
		return distLayer{}, fmt.Errorf("kernel count changed with batch size (%d vs %d)", nk, len(ks2))
	}
	if cap(c.affine) < nk {
		c.affine = make([]driverAffine, nk)
	}
	affine := c.affine[:nk]
	for i := range ks1 {
		a := &affine[i]
		a.inPer, a.inConst = affineFromTwo(ks1[i].LayerInputElems, ks2[i].LayerInputElems)
		a.opPer, a.opConst = affineFromTwo(ks1[i].LayerFLOPs, ks2[i].LayerFLOPs)
		a.outPer, a.outConst = affineFromTwo(ks1[i].LayerOutputElems, ks2[i].LayerOutputElems)
		// The domain covers all three candidates, not only the one the
		// model picks, so it matches the counts shape inference checks.
		d.maxBatch = min(d.maxBatch,
			driverLimit(ks1[i].LayerInputElems, ks2[i].LayerInputElems),
			driverLimit(ks1[i].LayerFLOPs, ks2[i].LayerFLOPs),
			driverLimit(ks1[i].LayerOutputElems, ks2[i].LayerOutputElems))
	}

	// The layer's breakpoints. BatchBreakpoints is batch-invariant; the
	// mapping is probed once per model mapping batch, and only the batches
	// whose signature resolves contribute.
	breakpoints := append(append(c.breakpoints[:0], 1), kernels.BatchBreakpoints(l)...)
	hits := c.hits[:0]
	for _, b := range c.mapBatches {
		l.Rebatch(b)
		c.sigBuf = l.AppendSignature(c.sigBuf[:0])
		if names, ok := c.mapping[string(c.sigBuf)]; ok && len(names) == nk {
			hits = append(hits, mappingHit{batch: b, names: names})
			breakpoints = append(breakpoints, b, b+1)
		}
	}
	slices.Sort(breakpoints)
	breakpoints = slices.Compact(breakpoints)
	c.breakpoints, c.hits = breakpoints, hits
	nbp := len(breakpoints)

	if cap(c.arena) < nk*nbp {
		c.arena = make([]planSeg, nk*nbp)
	}
	if cap(c.kernSegs) < nk {
		c.kernSegs = make([][]planSeg, nk)
	}
	kernSegs := c.kernSegs[:nk]
	for k := 0; k < nk; k++ {
		kernSegs[k] = c.arena[k*nbp : k*nbp : (k+1)*nbp]
	}

	for _, b := range breakpoints {
		ks := ks1 // every layer's first breakpoint is batch 1, dispatched above
		if b > 1 {
			l.Rebatch(b)
			if ks = c.dispatch(l); len(ks) != nk {
				return distLayer{}, fmt.Errorf("kernel count changed at batch %d", b)
			}
		}
		for _, h := range hits {
			if h.batch == b {
				for i := range ks {
					ks[i].Name = h.names[i]
				}
			}
		}
		for k := range ks {
			line, driver := c.resolve(ks[k].Name, ks[k].LayerFLOPs == 0)
			per, cnst := affine[k].pick(driver)
			seg := planSeg{minBatch: b, xPer: per, xConst: cnst, line: line}
			if prev := kernSegs[k]; len(prev) > 0 && sameResolution(prev[len(prev)-1], seg) {
				continue
			}
			kernSegs[k] = append(kernSegs[k], seg)
		}
	}

	total := 0
	for k := range kernSegs {
		total += len(kernSegs[k])
	}
	d.segs = make([]planSeg, 0, total)
	d.end = make([]int32, nk)
	for k := range kernSegs {
		d.segs = append(d.segs, kernSegs[k]...)
		d.end[k] = int32(len(d.segs))
	}
	return d, nil
}

// mappingHit is one mapping-table substitution of a distinct layer: at batch
// size batch, its signature resolves to the traced kernel names.
type mappingHit struct {
	batch int
	names []string
}

// mappingBatches is a model's sorted set of batch sizes embedded in its
// mapping-table signatures — the only batch sizes at which the table can
// substitute kernel names. It depends on the table alone, so it is computed
// on the first compile and reused by every later one instead of walking
// every signature per plan; the table never changes once the model is
// built. Concurrent first compiles may each compute it; they store
// identical values.
type mappingBatches struct {
	p atomic.Pointer[[]int]
}

// get returns the batch set of mapping, computing it on first use.
func (c *mappingBatches) get(mapping map[string][]string) []int {
	if p := c.p.Load(); p != nil {
		return *p
	}
	var bs []int
	for sig := range mapping {
		if b := signatureBatch(sig); b > 0 {
			bs = append(bs, b)
		}
	}
	slices.Sort(bs)
	bs = slices.Compact(bs)
	c.p.Store(&bs)
	return bs
}

// appendLayerShapeKey appends an exact rendering of everything a layer's
// kernel resolution can depend on — kind, every dispatch parameter, and
// every inferred shape — to dst. Two layers with equal keys at batch 1
// compile to identical plan segments at every batch size.
func appendLayerShapeKey(dst []byte, l *dnn.Layer) []byte {
	dst = append(dst, l.Kind...)
	for _, v := range [...]int{l.Cin, l.Cout, l.KH, l.KW, l.Stride, l.Pad, l.Groups,
		l.InFeatures, l.OutFeatures, l.VocabSize, l.EmbedDim, l.Heads} {
		dst = append(dst, '|')
		dst = strconv.AppendInt(dst, int64(v), 10)
	}
	dst = append(dst, '|')
	dst = strconv.AppendBool(dst, l.TransposeB)
	dst = append(dst, '#')
	dst = strconv.AppendInt(dst, int64(len(l.InShapes)), 10)
	for _, s := range l.InShapes {
		dst = append(dst, '#')
		for _, d := range s {
			dst = append(dst, ',')
			dst = strconv.AppendInt(dst, int64(d), 10)
		}
	}
	dst = append(dst, '>')
	for _, d := range l.OutShape {
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, int64(d), 10)
	}
	return dst
}

// affineFromTwo recovers v(N) = per·N + const from v(1) and v(2). Every
// driver variable is affine in the batch size, so the recovery is exact.
func affineFromTwo(v1, v2 int64) (per, cnst int64) {
	per = v2 - v1
	return per, v1 - per
}

// driverLimit is the largest batch size, at most MaxBatch, at which a
// driver with values v1 at batch 1 and v2 at batch 2 stays inside int64.
// Shape inference guarantees v1 fits; drivers are non-negative and
// non-decreasing in the batch, so a v2 below v1 means the batch-2 value
// wrapped and only batch 1 is representable (where the affine map still
// yields v1 exactly, whatever the wrap did to its coefficients).
func driverLimit(v1, v2 int64) int {
	if v2 < v1 {
		return 1
	}
	per, cnst := affineFromTwo(v1, v2)
	if per == 0 {
		return MaxBatch
	}
	return int(min((math.MaxInt64-max(cnst, 0))/per, MaxBatch))
}

// sameResolution reports whether two segments predict identically (ignoring
// their batch ranges), allowing adjacent segments to merge.
func sameResolution(a, b planSeg) bool {
	return a.xPer == b.xPer && a.xConst == b.xConst && a.line == b.line
}

// signatureBatch extracts the batch size embedded in a layer signature's
// first inferred shape ("...|in=(512, 3, 224, 224)|..."). The "(" excludes
// parameter fields like Linear's "|in=4096". Returns 0 when no shape batch is
// present.
func signatureBatch(sig string) int {
	i := strings.Index(sig, "|in=(")
	if i < 0 {
		return 0
	}
	n := 0
	for j := i + len("|in=("); j < len(sig); j++ {
		c := sig[j]
		if c < '0' || c > '9' {
			break
		}
		n = n*10 + int(c-'0')
	}
	return n
}

// ------------------------------------------------------------- cache keys

// planKey identifies a compiled plan in a model's plan cache. Network names
// alone are not a safe key — independently built networks can share a name —
// so the key pairs the name with a structural fingerprint.
type planKey struct {
	name string
	fp   uint64
}

// Hash implements cache.Hasher.
func (k planKey) Hash() uint64 { return k.fp }

// FNV-1a, hand-rolled so fingerprinting allocates nothing.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

type fnv64 uint64

//dnnperf:allocfree
func (h *fnv64) str(s string) {
	x := uint64(*h)
	for i := 0; i < len(s); i++ {
		x = (x ^ uint64(s[i])) * fnvPrime64
	}
	*h = fnv64(x)
}

//dnnperf:allocfree
func (h *fnv64) u64(v uint64) {
	x := uint64(*h)
	for i := 0; i < 8; i++ {
		x = (x ^ (v & 0xff)) * fnvPrime64
		v >>= 8
	}
	*h = fnv64(x)
}

//dnnperf:allocfree
func (h *fnv64) num(v int) { h.u64(uint64(int64(v))) }

//dnnperf:allocfree
func (h *fnv64) flag(b bool) {
	if b {
		h.u64(1)
	} else {
		h.u64(0)
	}
}

// networkFingerprint hashes everything about a network's structure that a
// prediction can depend on: identity, input shape, and per-layer kinds,
// parameters and wiring. Layer names are deliberately excluded — predictions
// never consume them. The training flag is folded in because training and
// inference plans differ for the same structure.
//
//dnnperf:allocfree
func networkFingerprint(n *dnn.Network, training bool) uint64 {
	h := fnv64(fnvOffset64)
	h.str(n.Name)
	h.str(n.Family)
	h.str(string(n.Task))
	h.flag(training)
	h.num(len(n.InputShape))
	for _, d := range n.InputShape {
		h.num(d)
	}
	h.num(len(n.Layers))
	for _, l := range n.Layers {
		h.str(string(l.Kind))
		h.num(len(l.Inputs))
		for _, in := range l.Inputs {
			h.num(in)
		}
		h.num(l.Cin)
		h.num(l.Cout)
		h.num(l.KH)
		h.num(l.KW)
		h.num(l.Stride)
		h.num(l.Pad)
		h.num(l.Groups)
		h.num(l.InFeatures)
		h.num(l.OutFeatures)
		h.num(l.VocabSize)
		h.num(l.EmbedDim)
		h.num(l.Heads)
		h.flag(l.TransposeB)
	}
	return uint64(h)
}
