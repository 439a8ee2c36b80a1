package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/fleetsim"
	"repro/internal/gpu"
)

// igkwModelDigest pins every model the quick lab's DSE base resolves,
// recorded by running TestIGKWModelDigest's body while IGKWBase still kept
// its training records and refitted them on every Resolve. Save bytes cover
// the family and class-fallback lines no prediction digest reaches.
const igkwModelDigest = "6fda5e634f392bdb78f27590f46812d6d1d7731e2f6906178bba176ba14d9c8a"

// TestIGKWModelDigest fits the IGKW base on the quick lab's DSE training
// GPUs (A100, A40, GTX 1080 Ti, V100) and hashes, in order, the core.Save
// bytes of its models resolved at the 13 case-study TITAN RTX bandwidths
// (200–1400 GB/s) and for the 8 clusterFleet targets, then every entry of
// the FleetOracle step table (hex floats). It runs at GOMAXPROCS 1 and 4,
// so the concurrent per-GPU fit is held to the serial result.
func TestIGKWModelDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick-lab collection")
	}
	l := quickLab(t)
	ds, err := l.Dataset(dseTrainGPUs()...)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 4} {
		t.Run("GOMAXPROCS="+strconv.Itoa(procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			base, err := core.FitIGKWBase(ds, dseTrainGPUs(), TrainBatch)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			var targets []gpu.Spec
			for bw := 200.0; bw <= 1400.0; bw += 100 {
				targets = append(targets, gpu.TitanRTX.WithBandwidth(bw))
			}
			for _, target := range append(targets, clusterFleet()...) {
				hashResolved(t, h, base, target)
			}
			models, nets, err := FleetOracle(l)
			if err != nil {
				t.Fatal(err)
			}
			st, err := fleetsim.BuildStepTable(models, nets, 8)
			if err != nil {
				t.Fatal(err)
			}
			for g := range st.GPUs() {
				for n := range st.Nets() {
					for b := 1; b <= st.MaxBatch(); b++ {
						fmt.Fprintf(h, "%s %s %d %s\n", st.GPUs()[g], st.Nets()[n], b,
							strconv.FormatFloat(st.At(int32(g), int32(n), int32(b)), 'x', -1, 64))
					}
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != igkwModelDigest {
				t.Fatalf("IGKW model digest = %s, want %s", got, igkwModelDigest)
			}
		})
	}
}

// hashResolved writes the Save bytes of base resolved for target to h.
func hashResolved(t *testing.T, h hash.Hash, base *core.IGKWBase, target gpu.Spec) {
	t.Helper()
	m, err := base.Resolve(target)
	if err != nil {
		t.Fatalf("resolve %s: %v", target.Name, err)
	}
	if err := core.Save(h, m); err != nil {
		t.Fatal(err)
	}
}
