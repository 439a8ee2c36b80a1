package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"strconv"
	"testing"
	"time"

	"repro/internal/fleetsim"
	"repro/internal/loadgen"
	"repro/internal/sched"
)

// TestSeededStreamDigests pins every seeded splitmix64 stream the
// repository draws from — sched's synthetic tables and annealing, fleetsim's
// synthetic step table, trace network mix and closed-loop replay, the four
// loadgen processes, and the proxy's ring positions and key walks — to
// digests taken before the streams were routed through one shared
// generator. The sched-defaults and arrivals-defaults cases pin the
// default search effort of each instance-size regime and the default
// bursty and diurnal shapes, as digests taken while those values were
// still settable options; the loadgen case likewise hashes the bursty and
// diurnal processes at NewArrivals' shapes, as a digest taken while those
// shapes were still constructor parameters. The four sched digests were
// re-recorded when the search's load heap stopped being left invalid by a
// move or swap that changes two loads, which changes which GPU the
// annealing takes as its bottleneck. A change that moves any draw, however
// slightly, moves its digest. It lives in package fleet because the ring
// is unexported.
func TestSeededStreamDigests(t *testing.T) {
	cases := []struct {
		name  string
		write func(t *testing.T, h hash.Hash)
		want  string
	}{
		{"sched", writeSchedStream, "402c6f78f18b6d488b2cd576da39622a1e1aee64fc7d948a20e5251336c35a0c"},
		{"fleetsim", writeFleetsimStream, "92e7156d7bcbdd8a71d77bba6e9e70eda708f1502d5c0b04bcf2974f6eb31af0"},
		{"loadgen", writeLoadgenStream, "125ee50a8a0b24f62ee7209a580da9985c9e64c54e6154421ed1a1bfb5780e05"},
		{"ring", writeRingStream, "5837921149c395d4b492d86cf31229cfd2a84a7b72000ac88662195d398a91d5"},
		{"sched-defaults-48", writeSchedDefaults(48, 4), "60683749a53e2a2136136508a819b461593d0545c64a9651d30439ec8575aac7"},
		{"sched-defaults-300", writeSchedDefaults(300, 5), "673672e73fb7f0ade11bfdcf7caa22f98725ba42fc1ae023b9168faeb87c5b22"},
		{"sched-defaults-1200", writeSchedDefaults(1200, 6), "1c0bd54b381e1b2b3d0f0030bbccb15b4532be20f2ab6db4ef663898b393b6df"},
		{"arrivals-defaults", writeArrivalsDefaults, "b3a533d25801c4f4c11257f6e861f948acd1f76e0582c61cbf652ea865f3e197"},
	}
	for _, c := range cases {
		h := sha256.New()
		c.write(t, h)
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("%s stream digest = %s, want %s", c.name, got, c.want)
		}
	}
}

func putFloat(h hash.Hash, v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	h.Write(b[:])
}

func putInt(h hash.Hash, v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	h.Write(b[:])
}

// writeSchedStream hashes a synthetic table and its full search, small
// enough that odd restarts start from seeded random assignments.
func writeSchedStream(t *testing.T, h hash.Hash) {
	dt := sched.Synthetic(200, 5, 3)
	for g := 0; g < dt.NumGPUs(); g++ {
		for _, v := range dt.Row(g) {
			putFloat(h, v)
		}
	}
	res, err := sched.Schedule(dt, sched.SearchOptions{Seed: 11, Moves: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range res.Dense.GPUOf {
		putInt(h, int64(g))
	}
	putFloat(h, res.Makespan)
	putInt(h, res.MovesAccepted)
	putInt(h, res.SwapsAccepted)
	putInt(h, int64(res.BestRestart))
}

// writeSchedDefaults hashes the search of a tasks × gpus synthetic table
// with only the seed set, so the size-dependent restart, move-budget,
// lookahead and descent defaults decide every draw: 48 tasks is in the
// 8-restart regime, 300 in the full-descent one, 1,200 in neither.
func writeSchedDefaults(tasks, gpus int) func(*testing.T, hash.Hash) {
	return func(t *testing.T, h hash.Hash) {
		res, err := sched.Schedule(sched.Synthetic(tasks, gpus, int64(tasks)), sched.SearchOptions{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range res.Dense.GPUOf {
			putInt(h, int64(g))
		}
		putFloat(h, res.Makespan)
		for _, v := range []int64{res.MovesTried, res.MovesAccepted, res.SwapsTried, res.SwapsAccepted,
			int64(res.Restarts), int64(res.BestRestart)} {
			putInt(h, v)
		}
	}
}

// writeFleetsimStream hashes a synthetic step table, a trace built from it,
// and an open- and a closed-loop replay summary.
func writeFleetsimStream(t *testing.T, h hash.Hash) {
	st := fleetsim.SyntheticStepTable(3, 5, 8, 21)
	for g := range st.GPUs() {
		for n := range st.Nets() {
			for b := 1; b <= st.MaxBatch(); b++ {
				putFloat(h, st.At(int32(g), int32(n), int32(b)))
			}
		}
	}
	tr, err := fleetsim.BuildTrace(loadgen.NewPoissonArrivals(150, 4), len(st.Nets()), 3000, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.ArrivalS {
		putFloat(h, tr.ArrivalS[i])
		putInt(h, int64(tr.Net[i]))
	}
	writeResult := func(cfg fleetsim.Config, trace *fleetsim.Trace) {
		sim, err := fleetsim.NewSim(st, cfg, trace)
		if err != nil {
			t.Fatal(err)
		}
		r := sim.Replay()
		for _, v := range []float64{r.SimSeconds, r.P50S, r.P90S, r.P99S, r.P999S, r.MaxS, r.MeanBatch} {
			putFloat(h, v)
		}
		putInt(h, r.Requests)
		putInt(h, r.Events)
		putInt(h, r.Batches)
	}
	fleet := []int32{0, 1, 2, 2}
	writeResult(fleetsim.Config{Fleet: fleet, PostProcS: 1e-3}, tr)
	writeResult(fleetsim.Config{Fleet: fleet, Users: 24, ThinkMeanS: 0.02, HorizonS: 4, Seed: 17}, nil)
}

// writeLoadgenStream hashes the first draws of every arrival process and
// the think-time sampler.
func writeLoadgenStream(t *testing.T, h hash.Hash) {
	procs := []loadgen.Process{
		loadgen.NewPoissonArrivals(300, 1),
		loadgen.NewBurstyArrivals(300, 2),
		loadgen.NewDiurnalArrivals(300, 5, 3),
	}
	for _, p := range procs {
		h.Write([]byte(p.Name()))
		for i := 0; i < 2000; i++ {
			putFloat(h, p.Next())
		}
	}
	think := loadgen.NewThink(0.05, 4)
	for i := 0; i < 2000; i++ {
		putFloat(h, think.Sample())
	}
}

// writeArrivalsDefaults hashes the first draws of every open-loop schedule
// built by NewArrivals from a rate and a seed alone, plus a diurnal one
// with its period set, as loadgen.Run sets it.
func writeArrivalsDefaults(t *testing.T, h hash.Hash) {
	for _, c := range []struct {
		arrival loadgen.Arrival
		cfg     loadgen.ArrivalsConfig
	}{
		{loadgen.Poisson, loadgen.ArrivalsConfig{Rate: 300, Seed: 1}},
		{loadgen.Bursty, loadgen.ArrivalsConfig{Rate: 300, Seed: 2}},
		{loadgen.Diurnal, loadgen.ArrivalsConfig{Rate: 300, Seed: 3}},
		{loadgen.Diurnal, loadgen.ArrivalsConfig{Rate: 300, Seed: 3, DiurnalPeriod: 5 * time.Second}},
	} {
		p, err := loadgen.NewArrivals(c.arrival, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(p.Name()))
		for i := 0; i < 2000; i++ {
			putFloat(h, p.Next())
		}
	}
}

// writeRingStream hashes the proxy's ring for a fixed address set and the
// owner walk of a fixed key set.
func writeRingStream(t *testing.T, h hash.Hash) {
	p, err := New([]string{"10.0.0.1:8080", "10.0.0.2:8080", "10.0.0.3:8081", "replica-d:9000"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range p.ring {
		putInt(h, int64(pt.hash))
		putInt(h, int64(pt.idx))
	}
	for k := 0; k < 500; k++ {
		for _, idx := range p.owners(fnv64("network=net" + strconv.Itoa(k))) {
			putInt(h, int64(idx))
		}
	}
}
