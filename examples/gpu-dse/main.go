// GPU design-space exploration (case study 1): given measurements on
// existing GPUs, predict how a customized TITAN RTX would perform at
// different memory bandwidths — without ever measuring one. This is the
// "what is the optimal memory bandwidth if cores and frequency are kept
// unchanged" procurement question of §6.
package main

import (
	"fmt"
	"log"
	"strings"

	"repro"
)

func main() {
	// Train the inter-GPU base once, from four measured GPUs.
	trainGPUs := []repro.GPU{repro.A100, repro.A40, repro.GTX1080Ti, repro.V100}
	var nets []*repro.Network
	for i, n := range repro.Zoo() {
		if i%6 == 0 {
			nets = append(nets, n)
		}
	}
	opt := repro.DefaultCollectOptions()
	opt.Batches = 8
	ds, _, err := repro.Collect(nets, trainGPUs, opt)
	if err != nil {
		log.Fatal(err)
	}
	base, err := repro.TrainIGKWBase(ds, trainGPUs)
	if err != nil {
		log.Fatal(err)
	}

	// Sweep hypothetical bandwidths for two workloads with different
	// memory behaviour.
	for _, workload := range []string{"resnet50", "densenet169"} {
		net, err := repro.NetworkByName(workload)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\npredicted time of %s on TITAN RTX with modified bandwidth:\n", workload)
		var prev float64
		for bw := 200.0; bw <= 1400.0; bw += 100 {
			target := repro.TitanRTX.WithBandwidth(bw)
			m, err := base.Resolve(target)
			if err != nil {
				log.Fatal(err)
			}
			tPred, err := m.PredictNetwork(net, repro.TrainBatchSize)
			if err != nil {
				log.Fatal(err)
			}
			t := float64(tPred)
			gain := ""
			if prev > 0 {
				gain = fmt.Sprintf("  (−%4.1f%% vs −100 GB/s)", 100*(prev-t)/prev)
			}
			bar := strings.Repeat("█", int(t*1e3/50))
			native := ""
			if int(bw) == 600 {
				native = "  ← native 672 GB/s is here"
			}
			fmt.Printf("  %5.0f GB/s  %9.1f ms %s%s%s\n", bw, t*1e3, bar, gain, native)
			prev = t
		}
	}
	fmt.Println("\nEach point resolves the trained base for a hypothetical GPU in tens of")
	fmt.Println("microseconds (~40 µs per Resolve, ~38 ms for the base fit, 2-vCPU VM) —")
	fmt.Println("the sweep a cycle-level simulator would need GPU-weeks for.")
}
