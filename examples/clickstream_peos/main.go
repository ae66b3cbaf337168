// Clickstream PEOS: a full hardened deployment. A web company wants
// the frequency of clicked items without trusting any single party:
// the server alone must learn within eps=1.5; even if every OTHER user
// colludes with the server the victim keeps eps=3; even if the server
// corrupts ⌈r/2⌉ or more shufflers each report stays eps=6-LDP.
//
// The example runs the deployment's two tiers:
//
//  1. The live collection tier — the planned mechanism streamed
//     through the concurrent ingestion service (internal/service):
//     encrypted reports over real connections, batched into runs, and
//     a mid-stream Snapshot of the counters while clicks are still
//     arriving. The service is the shuffler and the server in one
//     trusted process (§III): the everyday dashboard, whose estimate
//     is released once the day is drained.
//
//  2. The hardened PEOS protocol (§VI) over the same clicks — secret
//     shares, DGK encryption, encrypted oblivious shuffle — whose
//     estimate survives the three collusion scenarios above.
//
//     go run ./examples/clickstream_peos
package main

import (
	"fmt"
	"log"
	"net"

	"shuffledp"
	"shuffledp/internal/ecies"
	"shuffledp/internal/ldp"
	"shuffledp/internal/service"
	"shuffledp/internal/transport"
)

func main() {
	const (
		n = 1200 // users (kept small: this runs the real cryptography)
		d = 16   // item catalogue
	)
	values := shuffledp.SyntheticDataset(n, d, 1.4, 11)

	// At this demo scale the users' own randomness contributes little
	// blanket, so the planner compensates with fake reports; production
	// n ~ 10^6 needs far fewer fakes per user (see `reproduce -only
	// table3 [-fast]`).
	plan, err := shuffledp.PlanPEOS(1.5, 3, 6, n, d, 1e-9)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("deployment plan:", plan)

	// ---- Tier 1: live collection through the streaming service ----
	streamEst, meter, err := streamClicks(plan, values, d)
	if err != nil {
		log.Fatal(err)
	}

	// ---- Tier 2: the hardened PEOS run over the same clicks ----
	res, err := shuffledp.RunPEOS(plan, values, shuffledp.PEOSRunConfig{
		Shufflers: 3,
		KeyBits:   1024,
	})
	if err != nil {
		log.Fatal(err)
	}

	truth := make([]float64, d)
	for _, v := range values {
		truth[v] += 1.0 / n
	}
	fmt.Println("\nitem   true-freq   stream-est   peos-est")
	for v := 0; v < 6; v++ {
		fmt.Printf("%4d   %9.4f   %10.4f   %8.4f\n",
			v, truth[v], streamEst[v], res.Estimates[v])
	}
	fmt.Println("\nstreaming-tier transport costs:")
	fmt.Print(meter.String())
	fmt.Println("\nPEOS per-party costs:")
	fmt.Print(res.CostReport)
}

// streamClicks pushes the clicks through the concurrent ingestion
// service with the plan's local mechanism. Only the drained estimate
// is released: a live Snapshot shows counters, because an open
// collection's estimate is no release the plan accounts for.
func streamClicks(plan *shuffledp.PEOSPlan, values []int, d int) ([]float64, *transport.Meter, error) {
	var fo ldp.FrequencyOracle
	if plan.Mechanism == "GRR" {
		fo = ldp.NewGRR(d, plan.EpsilonLocal)
	} else {
		fo = ldp.NewSOLH(d, plan.DPrime, plan.EpsilonLocal)
	}
	key, err := ecies.GenerateKey()
	if err != nil {
		return nil, nil, err
	}
	var meter transport.Meter
	svc, err := service.New(service.Config{
		FO:        fo,
		Key:       key,
		BatchSize: 200,
		Meter:     &meter,
	})
	if err != nil {
		return nil, nil, err
	}
	defer svc.Close()

	clientSide, serverSide := net.Pipe()
	if err := svc.Ingest(serverSide); err != nil {
		return nil, nil, err
	}
	reports := ldp.RandomizeParallel(fo, values, 12, 0)
	// The aggregation tier speaks the batched session wire; Flush below
	// pushes the ragged half-day batch like any buffered writer.
	cl, err := service.NewSessionClient(fo, key.Public(), nil, clientSide, 0)
	if err != nil {
		return nil, nil, err
	}

	// First half of the day's clicks...
	half := len(reports) / 2
	for _, rep := range reports[:half] {
		if err := cl.SendReport(rep); err != nil {
			return nil, nil, err
		}
	}
	if err := cl.Flush(); err != nil {
		return nil, nil, err
	}
	// ...and the dashboard refreshes its counters without stopping
	// ingestion.
	snap := svc.Snapshot()
	fmt.Printf("\nmid-stream snapshot: %d reports in, %d aggregated, %d batches\n",
		snap.Received, snap.Reports, snap.Batches)

	for _, rep := range reports[half:] {
		if err := cl.SendReport(rep); err != nil {
			return nil, nil, err
		}
	}
	if err := cl.Close(); err != nil {
		return nil, nil, err
	}
	final, err := svc.Drain()
	if err != nil {
		return nil, nil, err
	}
	fmt.Printf("drained: %d reports over %d batches\n", final.Reports, final.Batches)
	return final.Estimates, &meter, nil
}
