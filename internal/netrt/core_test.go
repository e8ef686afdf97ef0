package netrt

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/bftcup/bftcup/internal/core"
	"github.com/bftcup/bftcup/internal/cryptox"
	"github.com/bftcup/bftcup/internal/graph"
	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/rt"
)

// TestClusterBFTCUPFig1b runs the full BFT-CUP node stack on a pipe cluster:
// Fig 1b with a silent Byzantine member (simply left out of the cluster).
// Every correct process must decide, all on one value, and the cluster must
// count the traffic. Run with -race.
func TestClusterBFTCUPFig1b(t *testing.T) {
	fig := graph.Fig1b()
	ids := fig.G.Nodes()
	signers, reg, err := cryptox.GenerateKeys(1, ids)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	decisions := make(map[model.ID]model.Value)
	done := make(chan struct{}, len(ids))

	correct := fig.G.NodeSet().Diff(fig.Byz)
	mk := func(id model.ID) rt.Reactor {
		cfg := core.Config{
			Mode:     core.ModeKnownF,
			F:        fig.F,
			PD:       fig.G.OutSet(id).Clone(),
			Proposal: model.Value(fmt.Sprintf("v%d", id)),
			// Tight periods keep the wall-clock test fast.
			PBFTTimeout: 50 * rt.Millisecond,
			PollPeriod:  10 * rt.Millisecond,
		}
		cfg.Discovery.Period = 5 * rt.Millisecond
		return core.NewNode(signers[id], reg, cfg, func(v model.Value) {
			mu.Lock()
			decisions[id] = v
			mu.Unlock()
			done <- struct{}{}
		})
	}
	c, err := NewCluster(context.Background(), correct.Sorted(), mk, ClusterConfig{Transport: "pipe"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	deadline := time.After(20 * time.Second)
	for i := 0; i < correct.Len(); i++ {
		select {
		case <-done:
		case <-deadline:
			mu.Lock()
			defer mu.Unlock()
			t.Fatalf("timeout: %d/%d decided: %v", len(decisions), correct.Len(), decisions)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	var val model.Value
	first := true
	for id, v := range decisions {
		if first {
			val, first = v, false
		} else if !val.Equal(v) {
			t.Fatalf("agreement violated live: %v decided %q, others %q", id, v, val)
		}
	}
	if c.Messages() == 0 || c.Bytes() == 0 {
		t.Fatal("metrics not recorded")
	}
}
