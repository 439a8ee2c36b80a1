package zoo

import (
	"fmt"
	"sort"

	"repro/internal/dnn"
)

// FullZooSize is the network count of the paper's dataset ("In total, we
// have 646 networks", §3). Full() generates exactly this many.
const FullZooSize = 646

// Standard returns the named, canonical models used throughout the paper's
// figures and case studies.
func Standard() []*dnn.Network {
	nets := make([]*dnn.Network, len(standard))
	for i, s := range standard {
		nets[i] = s.build()
	}
	return nets
}

// standard is the standard models' (name, builder) table, in the canonical
// order Standard() materializes. Each name is the name its builder's
// network carries.
var standard = []struct {
	name  string
	build func() *dnn.Network
}{
	{"resnet18", func() *dnn.Network { return MustResNet(18) }},
	{"resnet34", func() *dnn.Network { return MustResNet(34) }},
	{"resnet50", func() *dnn.Network { return MustResNet(50) }},
	{"resnet101", func() *dnn.Network { return MustResNet(101) }},
	{"resnet152", func() *dnn.Network { return MustResNet(152) }},
	{"resnet26", func() *dnn.Network { return MustResNet(26) }},
	{"resnet44", func() *dnn.Network { return MustResNet(44) }},
	{"resnet62", func() *dnn.Network { return MustResNet(62) }},
	{"resnet77", func() *dnn.Network { return MustResNet(77) }},
	{"resnet89", func() *dnn.Network { return MustResNet(89) }},
	{"vgg11", func() *dnn.Network { return MustVGG(11, false) }},
	{"vgg13", func() *dnn.Network { return MustVGG(13, false) }},
	{"vgg16", func() *dnn.Network { return MustVGG(16, false) }},
	{"vgg19", func() *dnn.Network { return MustVGG(19, false) }},
	{"vgg11_bn", func() *dnn.Network { return MustVGG(11, true) }},
	{"vgg13_bn", func() *dnn.Network { return MustVGG(13, true) }},
	{"vgg16_bn", func() *dnn.Network { return MustVGG(16, true) }},
	{"vgg19_bn", func() *dnn.Network { return MustVGG(19, true) }},
	{"densenet121", func() *dnn.Network { return MustDenseNet(121) }},
	{"densenet161", func() *dnn.Network { return MustDenseNet(161) }},
	{"densenet169", func() *dnn.Network { return MustDenseNet(169) }},
	{"densenet201", func() *dnn.Network { return MustDenseNet(201) }},
	{"resnext50_32x4d", func() *dnn.Network { return mustNet(ResNeXt("50_32x4d")) }},
	{"resnext101_32x8d", func() *dnn.Network { return mustNet(ResNeXt("101_32x8d")) }},
	{"wide_resnet50_2", func() *dnn.Network { return mustNet(WideResNet(50)) }},
	{"wide_resnet101_2", func() *dnn.Network { return mustNet(WideResNet(101)) }},
	{"mobilenet_v2", func() *dnn.Network { return StandardMobileNetV2() }},
	{"shufflenet_v1", func() *dnn.Network { return StandardShuffleNetV1() }},
	{"alexnet", func() *dnn.Network { return AlexNet(224) }},
	{"squeezenet1.0", func() *dnn.Network { return SqueezeNet("1.0", 224) }},
	{"squeezenet1.1", func() *dnn.Network { return SqueezeNet("1.1", 224) }},
	{"googlenet", func() *dnn.Network { return GoogLeNet(224) }},
	{"bert-tiny", func() *dnn.Network { return mustNet(StandardTransformer("bert-tiny")) }},
	{"bert-mini", func() *dnn.Network { return mustNet(StandardTransformer("bert-mini")) }},
	{"bert-small", func() *dnn.Network { return mustNet(StandardTransformer("bert-small")) }},
	{"bert-medium", func() *dnn.Network { return mustNet(StandardTransformer("bert-medium")) }},
	{"bert-base", func() *dnn.Network { return mustNet(StandardTransformer("bert-base")) }},
	{"vit-tiny", func() *dnn.Network { return mustNet(StandardViT("vit-tiny")) }},
	{"vit-small", func() *dnn.Network { return mustNet(StandardViT("vit-small")) }},
	{"vit-base", func() *dnn.Network { return mustNet(StandardViT("vit-base")) }},
}

// mustNet unwraps builder errors for compile-time-constant variants.
func mustNet(n *dnn.Network, err error) *dnn.Network {
	if err != nil {
		panic(err)
	}
	return n
}

// ByName builds the standard network with the given dataset name, and no
// other.
func ByName(name string) (*dnn.Network, error) {
	for _, s := range standard {
		if s.name == name {
			return s.build(), nil
		}
	}
	return nil, fmt.Errorf("zoo: unknown standard network %q", name)
}

// basic-tuple space for generated ResNet variants.
var (
	resnetB1 = []int{2, 3}
	resnetB2 = []int{2, 3, 4, 5}
	resnetB3 = []int{2, 4, 6, 8}
	resnetB4 = []int{2, 3}
)

// basicResNetTuples enumerates the generated basic-block configurations in a
// stable order.
func basicResNetTuples() [][4]int {
	var out [][4]int
	for _, b1 := range resnetB1 {
		for _, b2 := range resnetB2 {
			for _, b3 := range resnetB3 {
				for _, b4 := range resnetB4 {
					out = append(out, [4]int{b1, b2, b3, b4})
				}
			}
		}
	}
	return out
}

// bottleneckResNetTuples enumerates the generated bottleneck configurations.
func bottleneckResNetTuples() [][4]int {
	var out [][4]int
	for _, b2 := range []int{4, 6, 8} {
		for _, b3 := range []int{6, 9, 12, 17, 23, 29, 36} {
			for _, b4 := range []int{3, 4} {
				out = append(out, [4]int{3, b2, b3, b4})
			}
		}
	}
	return out
}

// variantResNet names and builds a generated ResNet variant.
func variantResNet(t [4]int, bottleneck bool, width, res int) *dnn.Network {
	kind := "b"
	if bottleneck {
		kind = "bt"
	}
	name := fmt.Sprintf("resnetv-%s%d.%d.%d.%d-w%d-r%d", kind, t[0], t[1], t[2], t[3], width, res)
	return ResNet(name, ResNetConfig{
		Blocks: t, Bottleneck: bottleneck, BaseWidth: width, Resolution: res,
	})
}

// vggVariantConfigs is the stage-config space for generated VGG variants
// (standard depths plus block-added/removed designs, §4 O2).
var vggVariantConfigs = [][]int{
	{1, 1, 2, 2, 2}, {2, 2, 2, 2, 2}, {2, 2, 3, 3, 3}, {2, 2, 4, 4, 4},
	{1, 2, 2, 3, 3}, {2, 2, 3, 4, 4}, {2, 3, 3, 4, 4}, {3, 3, 4, 4, 4},
	{1, 1, 1, 2, 2}, {2, 2, 5, 5, 5},
}

// isStandardVGGConfig reports whether a stage config matches a canonical
// depth.
func isStandardVGGConfig(stages []int) bool {
	for _, std := range standardVGGStages {
		match := len(std) == len(stages)
		for i := range std {
			if i < len(stages) && std[i] != stages[i] {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

// Full deterministically generates the complete 646-network zoo: the standard
// models plus structured variants across every family (depth/width/resolution
// sweeps for CNNs, size/sequence/width sweeps for transformers). The family
// mix loosely follows public model zoos — ResNet variants dominate, but every
// family contributes enough diversity that held-out evaluation exercises
// genuinely different structures.
func Full() []*dnn.Network {
	bs := FullBuilders()
	nets := make([]*dnn.Network, len(bs))
	seen := make(map[string]bool, len(bs))
	for i, b := range bs {
		n := b()
		if seen[n.Name] {
			panic(fmt.Sprintf("zoo: duplicate network name %q", n.Name))
		}
		seen[n.Name] = true
		nets[i] = n
	}
	return nets
}

// FullBuilders returns one constructor per zoo network in the zoo's canonical
// order: FullBuilders()[i]() builds exactly Full()[i]. Samplers construct
// only the networks they keep — the quick experiment lab, for example,
// benchmarks a 1-in-6 subset without materializing all 646 models.
func FullBuilders() []func() *dnn.Network {
	var nets []func() *dnn.Network
	add := func(f func() *dnn.Network) {
		nets = append(nets, f)
	}
	for _, s := range standard {
		add(s.build)
	}

	basics := basicResNetTuples()
	// Width-scaled basic ResNets.
	for _, w := range []int{48, 80} {
		for _, t := range basics {
			add(func() *dnn.Network { return variantResNet(t, false, w, 224) })
		}
	}
	// Resolution-scaled basic ResNets at standard width (half the tuples).
	for _, res := range []int{160, 192} {
		for _, t := range basics[:len(basics)/2] {
			add(func() *dnn.Network { return variantResNet(t, false, 64, res) })
		}
	}
	// Bottleneck variants at widened base.
	for _, t := range bottleneckResNetTuples() {
		add(func() *dnn.Network { return variantResNet(t, true, 96, 224) })
	}

	// VGG variants: width scales of every stage config, the non-standard
	// configs at full width, and resolution variants.
	for _, scale := range []float64{0.375, 0.5, 0.625, 0.75, 0.875, 1.125, 1.25} {
		for i, stages := range vggVariantConfigs {
			add(func() *dnn.Network {
				name := fmt.Sprintf("vggv-c%d-s%04d", i, int(scale*1000))
				return VGG(name, VGGConfig{
					Stages:   append([]int(nil), stages...),
					Channels: scaleChannels(standardVGGChannels, scale),
				})
			})
		}
	}
	for i, stages := range vggVariantConfigs {
		if isStandardVGGConfig(stages) {
			continue
		}
		add(func() *dnn.Network {
			name := fmt.Sprintf("vggv-c%d-s1000", i)
			return VGG(name, VGGConfig{
				Stages:   append([]int(nil), stages...),
				Channels: append([]int(nil), standardVGGChannels...),
			})
		})
	}
	for i, stages := range vggVariantConfigs {
		add(func() *dnn.Network {
			name := fmt.Sprintf("vggv-c%d-r192", i)
			return VGG(name, VGGConfig{
				Stages:     append([]int(nil), stages...),
				Channels:   append([]int(nil), standardVGGChannels...),
				Resolution: 192,
			})
		})
	}

	// DenseNet variants: growth-rate sweep and resolution variants.
	dnConfigs := [][]int{{6, 12, 24, 16}, {6, 12, 32, 32}, {4, 8, 16, 12}, {6, 12, 18, 12}}
	for _, g := range []int{12, 16, 20, 24, 28, 36, 40, 44} {
		for i, blocks := range dnConfigs {
			add(func() *dnn.Network {
				name := fmt.Sprintf("densenetv-c%d-g%d", i, g)
				return DenseNet(name, DenseNetConfig{
					Blocks: append([]int(nil), blocks...), GrowthRate: g,
				})
			})
		}
	}
	for _, res := range []int{160, 192} {
		for _, depth := range []int{121, 169} {
			add(func() *dnn.Network {
				cfg := standardDenseNets[depth]
				cfg.Blocks = append([]int(nil), cfg.Blocks...)
				cfg.Resolution = res
				return DenseNet(fmt.Sprintf("densenet%d_%d", depth, res), cfg)
			})
		}
	}

	// MobileNetV2: width × resolution sweep plus expansion-factor variants.
	for _, w := range []float64{0.35, 0.5, 0.75, 1.0, 1.25, 1.4} {
		for _, res := range []int{96, 128, 160, 192, 224, 256} {
			if int(w*100+0.5) == 100 && res == 224 {
				continue
			}
			add(func() *dnn.Network {
				return MobileNetV2(mobileNetVariantName(w, res), MobileNetV2Config{
					WidthMult: w, Resolution: res,
				})
			})
		}
	}
	for _, t := range []int{3, 4} {
		for _, w := range []float64{0.5, 1.0, 1.4} {
			for _, res := range []int{160, 224} {
				add(func() *dnn.Network {
					name := fmt.Sprintf("mobilenet_v2_t%d_%03d_%d", t, int(w*100+0.5), res)
					return MobileNetV2(name, MobileNetV2Config{
						WidthMult: w, Resolution: res, ExpandOverride: t,
					})
				})
			}
		}
	}

	// ShuffleNet v1: group × scale sweep plus resolution variants.
	for _, g := range []int{1, 2, 3, 4, 8} {
		for _, s := range []float64{0.5, 1.0, 1.5, 2.0} {
			if g == 3 && int(s*100) == 100 {
				continue
			}
			add(func() *dnn.Network {
				name := fmt.Sprintf("shufflenet_v1_g%d_s%03d", g, int(s*100))
				return ShuffleNetV1(name, ShuffleNetV1Config{Groups: g, Scale: s})
			})
		}
	}
	for _, g := range []int{1, 2, 3, 4, 8} {
		for _, res := range []int{160, 192} {
			add(func() *dnn.Network {
				name := fmt.Sprintf("shufflenet_v1_g%d_r%d", g, res)
				return ShuffleNetV1(name, ShuffleNetV1Config{Groups: g, Resolution: res})
			})
		}
	}

	// Resolution variants of the remaining CNN families.
	for _, res := range []int{160, 192, 256} {
		add(func() *dnn.Network { return AlexNet(res) })
		add(func() *dnn.Network { return GoogLeNet(res) })
		add(func() *dnn.Network { return SqueezeNet("1.0", res) })
		add(func() *dnn.Network { return SqueezeNet("1.1", res) })
	}

	// Transformer sweep at the BERT-and-above scale the HuggingFace
	// text-classification group occupies, plus FFN-width and head-count
	// variants (skipping points that collide with the named standard
	// models).
	for _, layers := range []int{4, 6, 8, 12} {
		for _, hidden := range []int{256, 512, 768} {
			for _, seq := range []int{128, 256, 384} {
				cfg := TransformerConfig{Layers: layers, Hidden: hidden, SeqLen: seq}
				if isStandardTransformer(cfg) {
					continue
				}
				add(func() *dnn.Network {
					name := fmt.Sprintf("tx-l%d-h%d-s%d", layers, hidden, seq)
					return Transformer(name, cfg)
				})
			}
		}
	}
	for _, layers := range []int{4, 8, 12} {
		for _, hidden := range []int{512, 768} {
			add(func() *dnn.Network {
				name := fmt.Sprintf("tx-l%d-h%d-ffn2", layers, hidden)
				return Transformer(name, TransformerConfig{
					Layers: layers, Hidden: hidden, SeqLen: 128, FFNMult: 2,
				})
			})
		}
	}
	for _, heads := range []int{4, 16} {
		for _, layers := range []int{4, 8} {
			add(func() *dnn.Network {
				name := fmt.Sprintf("tx-l%d-h512-a%d", layers, heads)
				return Transformer(name, TransformerConfig{
					Layers: layers, Hidden: 512, Heads: heads, SeqLen: 128,
				})
			})
		}
	}

	// ViT sweep: patch/width/depth/resolution variants.
	for _, cfg := range []ViTConfig{
		{PatchSize: 32, Hidden: 768, Layers: 12, Heads: 12},
		{PatchSize: 16, Hidden: 192, Layers: 12, Heads: 3, Resolution: 160},
		{PatchSize: 16, Hidden: 384, Layers: 12, Heads: 6, Resolution: 192},
		{PatchSize: 16, Hidden: 384, Layers: 8, Heads: 6},
		{PatchSize: 16, Hidden: 512, Layers: 10, Heads: 8},
		{PatchSize: 32, Hidden: 384, Layers: 12, Heads: 6},
		{PatchSize: 16, Hidden: 256, Layers: 12, Heads: 4},
		{PatchSize: 16, Hidden: 768, Layers: 8, Heads: 12},
	} {
		add(func() *dnn.Network {
			res := cfg.Resolution
			if res == 0 {
				res = 224
			}
			name := fmt.Sprintf("vitv-p%d-h%d-l%d-r%d", cfg.PatchSize, cfg.Hidden, cfg.Layers, res)
			return ViT(name, cfg)
		})
	}

	// ResNeXt cardinality/width sweep.
	for _, g := range []int{8, 16, 32} {
		for _, w := range []int{2, 4, 8} {
			add(func() *dnn.Network {
				name := fmt.Sprintf("resnextv-g%d-w%d", g, w)
				return ResNet(name, ResNetConfig{
					Blocks: [4]int{3, 4, 6, 3}, Bottleneck: true, Groups: g, WidthPerGroup: w,
				})
			})
		}
	}

	// Pad to exactly FullZooSize, drawing round-robin from additional
	// variant pools so no single family dominates the tail.
	for _, f := range padPoolBuilders() {
		if len(nets) >= FullZooSize {
			break
		}
		add(f)
	}
	if len(nets) != FullZooSize {
		panic(fmt.Sprintf("zoo: generated %d builders, want %d", len(nets), FullZooSize))
	}
	return nets
}

// padPoolBuilders enumerates the deterministic interleaved filler pool:
// ResNet widths, VGG scales, MobileNet widths, DenseNet growths, ShuffleNet
// scales and mid-size transformers, drawn round-robin.
func padPoolBuilders() []func() *dnn.Network {
	var pools [][]func() *dnn.Network

	var resnets []func() *dnn.Network
	for _, w := range []int{32, 96, 112} {
		for _, t := range basicResNetTuples() {
			resnets = append(resnets, func() *dnn.Network {
				return variantResNet(t, false, w, 224)
			})
		}
	}
	pools = append(pools, resnets)

	var vggs []func() *dnn.Network
	for _, scale := range []float64{0.45, 0.55, 0.7, 0.8, 0.95} {
		for i, stages := range vggVariantConfigs {
			vggs = append(vggs, func() *dnn.Network {
				name := fmt.Sprintf("vggv-c%d-s%04d", i, int(scale*1000))
				return VGG(name, VGGConfig{
					Stages:   append([]int(nil), stages...),
					Channels: scaleChannels(standardVGGChannels, scale),
				})
			})
		}
	}
	pools = append(pools, vggs)

	var mobiles []func() *dnn.Network
	for _, w := range []float64{0.6, 0.9, 1.1} {
		for _, res := range []int{96, 128, 160, 192, 224, 256} {
			mobiles = append(mobiles, func() *dnn.Network {
				return MobileNetV2(mobileNetVariantName(w, res),
					MobileNetV2Config{WidthMult: w, Resolution: res})
			})
		}
	}
	pools = append(pools, mobiles)

	var denses []func() *dnn.Network
	dnConfigs := [][]int{{6, 12, 24, 16}, {6, 12, 32, 32}, {4, 8, 16, 12}, {6, 12, 18, 12}}
	for _, g := range []int{14, 18, 22, 26} {
		for i, blocks := range dnConfigs {
			denses = append(denses, func() *dnn.Network {
				name := fmt.Sprintf("densenetv-c%d-g%d", i, g)
				return DenseNet(name, DenseNetConfig{
					Blocks: append([]int(nil), blocks...), GrowthRate: g,
				})
			})
		}
	}
	pools = append(pools, denses)

	var shuffles []func() *dnn.Network
	for _, g := range []int{1, 2, 3, 4, 8} {
		for _, s := range []float64{0.75, 1.25} {
			shuffles = append(shuffles, func() *dnn.Network {
				name := fmt.Sprintf("shufflenet_v1_g%d_s%03d", g, int(s*100))
				return ShuffleNetV1(name, ShuffleNetV1Config{Groups: g, Scale: s})
			})
		}
	}
	pools = append(pools, shuffles)

	var txs []func() *dnn.Network
	for _, layers := range []int{3, 5, 7, 9, 10} {
		for _, hidden := range []int{256, 512, 768} {
			txs = append(txs, func() *dnn.Network {
				name := fmt.Sprintf("tx-l%d-h%d-s128", layers, hidden)
				return Transformer(name, TransformerConfig{
					Layers: layers, Hidden: hidden, SeqLen: 128,
				})
			})
		}
	}
	pools = append(pools, txs)

	var out []func() *dnn.Network
	for i := 0; ; i++ {
		advanced := false
		for _, p := range pools {
			if i < len(p) {
				out = append(out, p[i])
				advanced = true
			}
		}
		if !advanced {
			return out
		}
	}
}

// isStandardTransformer reports whether a sweep point matches one of the
// named BERT sizes (same layers/hidden/seq and default heads).
func isStandardTransformer(cfg TransformerConfig) bool {
	for _, std := range standardTransformers {
		if std.Layers == cfg.Layers && std.Hidden == cfg.Hidden && std.SeqLen == cfg.SeqLen {
			return true
		}
	}
	return false
}

// Families returns the distinct family names present in the full zoo.
func Families() []string {
	set := make(map[string]bool)
	for _, n := range Full() {
		set[n.Family] = true
	}
	out := make([]string, 0, len(set))
	for f := range set {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// Figure4Nets returns the ResNet and VGG series of Figure 4: standard plus
// non-standard block-count variants of both families.
func Figure4Nets() (resnets, vggs []*dnn.Network) {
	resnetTuples := [][4]int{
		{2, 2, 2, 2}, {2, 2, 4, 2}, {3, 4, 6, 3}, {3, 3, 3, 3},
		{2, 3, 5, 3}, {3, 4, 8, 3}, {3, 5, 10, 3}, {3, 6, 12, 3},
	}
	for _, t := range resnetTuples {
		cfg := ResNetConfig{Blocks: t}
		name := fmt.Sprintf("fig4-resnet%d-%d.%d.%d.%d", cfg.Depth(), t[0], t[1], t[2], t[3])
		resnets = append(resnets, ResNet(name, cfg))
	}
	vggConfigs := [][]int{
		{1, 1, 2, 2, 2}, {2, 2, 2, 2, 2}, {2, 2, 3, 3, 3}, {2, 2, 4, 4, 4},
		{2, 3, 3, 4, 4}, {3, 3, 4, 4, 4}, {2, 2, 5, 5, 5}, {3, 3, 5, 5, 5},
	}
	for i, stages := range vggConfigs {
		name := fmt.Sprintf("fig4-vgg-c%d", i)
		vggs = append(vggs, VGG(name, VGGConfig{
			Stages:   append([]int(nil), stages...),
			Channels: append([]int(nil), standardVGGChannels...),
		}))
	}
	return resnets, vggs
}
