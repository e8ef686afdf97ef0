package sim

import (
	"fmt"
	"testing"
)

// BenchmarkEngine measures the simulator hot path — event-queue churn, message
// delivery, network-delay RNG draws and metrics accounting — with reactors
// that do no protocol work. events/s is the headline throughput number the
// BENCH_matrix.json trajectory tracks; run with -benchmem to see allocs/op on
// the pooled event path.
func BenchmarkEngine(b *testing.B) {
	cases := []struct {
		name string
		w    Workload
	}{
		{"ring-16", Workload{Procs: 16, Tokens: 16, Fanout: 1}},
		{"ring-64", Workload{Procs: 64, Tokens: 64, Fanout: 1}},
		{"broadcast-16", Workload{Procs: 16, Tokens: 4, Fanout: 3, Horizon: 20 * Millisecond}},
	}
	for _, tc := range cases {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var events int64
			for i := 0; i < b.N; i++ {
				n, err := RunWorkload(tc.w)
				if err != nil {
					b.Fatal(err)
				}
				events = n
			}
			b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
			b.ReportMetric(float64(events), "events/op")
		})
	}
}

// BenchmarkEngineSend isolates the send+deliver cycle cost for one in-flight
// message at several payload sizes.
func BenchmarkEngineSend(b *testing.B) {
	for _, size := range []int{16, 256, 4096} {
		size := size
		b.Run(fmt.Sprintf("payload-%d", size), func(b *testing.B) {
			b.ReportAllocs()
			if _, err := RunWorkload(Workload{Procs: 2, Tokens: 1, PayloadBytes: size, Horizon: Time(b.N) * 10 * Millisecond}); err != nil {
				b.Fatal(err)
			}
		})
	}
}
