// Adhoc: the self-organizing-network workload from the CUP line of work
// (Cavin et al.): nodes of an ad-hoc mesh join knowing only their immediate
// contacts, one member silently fails, and the rest still agree — without
// anyone being configured with the system size or the fault threshold.
// Artificial per-link latency exercises the netrt runtime's delay hook.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"github.com/bftcup/bftcup"
)

func main() {
	// A 10-node mesh with a 5-node well-connected backbone.
	topo, backbone, err := bftcup.RandomExtendedKOSR(7, 5, 5)
	if err != nil {
		log.Fatal(err)
	}
	// One backbone node fails silently; with |core| = 5 the network
	// tolerates f = 2 — and crucially, nobody needs to know that number.
	failed := backbone[len(backbone)-1]
	check := bftcup.CheckBFTCUPFT(topo, []bftcup.ID{failed}, 1)
	if !check.OK {
		log.Fatalf("mesh rejected: %s", check.Reason)
	}
	fmt.Printf("mesh of %d nodes, backbone %v, silent failure: p%d\n",
		len(topo.Processes()), backbone, failed)

	sys, err := bftcup.NewSystem(bftcup.SystemConfig{
		Topology: topo,
		Protocol: bftcup.ProtocolBFTCUPFT,
		Exclude:  []bftcup.ID{failed},
		Latency: func(from, to bftcup.ID) time.Duration {
			// Rough "radio distance": farther IDs are slower.
			d := int64(from) - int64(to)
			if d < 0 {
				d = -d
			}
			return time.Duration(1+d) * time.Millisecond
		},
		Proposals: map[bftcup.ID]bftcup.Value{
			1: bftcup.Value("rendezvous@grid-17"),
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Stop()
	sys.Start()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	start := time.Now()
	if err := sys.WaitAll(ctx); err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	ref, _ := sys.DecisionOf(sys.Started()[0], 0)
	for _, id := range sys.Started() {
		v, _ := sys.DecisionOf(id, 0)
		if !v.Equal(ref) {
			log.Fatalf("agreement violated at p%d", id)
		}
	}
	committee, _ := sys.CommitteeOf(sys.Started()[0])
	fmt.Printf("all %d live nodes agreed on %q in %v\n", len(sys.Started()), ref, elapsed.Round(time.Millisecond))
	fmt.Printf("discovered committee: %v (the failed p%d is carried as a silent member)\n", committee, failed)
}
