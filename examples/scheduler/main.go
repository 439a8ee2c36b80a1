// Cross-GPU scheduling (case study 3): a machine-learning-as-a-service
// vendor has an A40 and a TITAN RTX; customers submit a queue of networks.
// The performance model answers both scheduling questions of §6: which GPU
// runs each network faster, and how to split the queue to minimize the
// overall completion time — fast enough that brute-force search is trivial.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	gpus := []repro.GPU{repro.A40, repro.TitanRTX}
	queue := []string{
		"resnet44", "resnet50", "resnet62", "resnet77",
		"densenet121", "densenet161", "densenet169", "densenet201",
		"shufflenet_v1",
	}

	// Train one kernel-wise model per GPU.
	var nets []*repro.Network
	for i, n := range repro.Zoo() {
		if i%6 == 0 {
			nets = append(nets, n)
		}
	}
	opt := repro.DefaultCollectOptions()
	opt.Batches = 8
	ds, _, err := repro.Collect(nets, gpus, opt)
	if err != nil {
		log.Fatal(err)
	}
	kws := map[string]*repro.KWModel{}
	for _, g := range gpus {
		kw, err := repro.TrainKW(ds, g.Name)
		if err != nil {
			log.Fatal(err)
		}
		kws[g.Name] = kw
	}

	// Predict every queue entry on both GPUs; measure ground truth for the
	// oracle comparison. Both tables list the GPUs in the same order, so a
	// GPU id names the same device in either.
	names := make([]string, len(gpus))
	for j, g := range gpus {
		names[j] = g.Name
	}
	pred, err := repro.NewScheduleTimes(names, len(queue))
	if err != nil {
		log.Fatal(err)
	}
	actual, err := repro.NewScheduleTimes(names, len(queue))
	if err != nil {
		log.Fatal(err)
	}
	for i, name := range queue {
		net, err := repro.NetworkByName(name)
		if err != nil {
			log.Fatal(err)
		}
		for j, g := range gpus {
			p, err := kws[g.Name].PredictNetwork(net, repro.TrainBatchSize)
			if err != nil {
				log.Fatal(err)
			}
			pred.Row(j)[i] = float64(p)
			tr, err := repro.Profile(net, repro.TrainBatchSize, g)
			if err != nil {
				log.Fatal(err)
			}
			actual.Row(j)[i] = tr.E2ETime
		}
	}

	// Question 1: per-network GPU choice.
	choice, err := repro.ChooseGPU(pred)
	if err != nil {
		log.Fatal(err)
	}
	truth, err := repro.ChooseGPU(actual)
	if err != nil {
		log.Fatal(err)
	}
	correct := 0
	fmt.Println("per-network GPU choice (predicted vs measured-fastest):")
	for i, name := range queue {
		ok := choice[i] == truth[i]
		if ok {
			correct++
		}
		fmt.Printf("  %-14s → %-10s (fastest: %-10s correct=%t)\n", name, names[choice[i]], names[truth[i]], ok)
	}
	fmt.Printf("  %d/%d correct\n\n", correct, len(queue))

	// Question 2: queue scheduling by brute force over predicted times,
	// against plain longest-processing-time-first list scheduling.
	plan, err := repro.ScheduleBruteForce(pred)
	if err != nil {
		log.Fatal(err)
	}
	achieved, err := repro.MakespanOf(plan.GPUOf, names, actual)
	if err != nil {
		log.Fatal(err)
	}
	oracle, err := repro.ScheduleBruteForce(actual)
	if err != nil {
		log.Fatal(err)
	}
	greedy, err := repro.ScheduleList(pred)
	if err != nil {
		log.Fatal(err)
	}
	greedyAchieved, err := repro.MakespanOf(greedy.GPUOf, names, actual)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("queue schedule (brute force on predicted times):")
	for i, name := range queue {
		fmt.Printf("  %-14s → %s\n", name, names[plan.GPUOf[i]])
	}
	fmt.Printf("\nmakespans: model plan %.1f ms (achieved), greedy %.1f ms, oracle %.1f ms\n",
		achieved*1e3, greedyAchieved*1e3, oracle.Makespan*1e3)
	fmt.Printf("model plan is within %.2f%% of the oracle\n",
		100*(achieved-oracle.Makespan)/oracle.Makespan)
}
