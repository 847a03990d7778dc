package main

import (
	"fmt"
	"time"

	"github.com/hpclab/datagrid/internal/topo"
	"github.com/hpclab/datagrid/internal/traffic"
)

// planet is the planet-popularity workload: the traffic plane's megarow
// world and load (internal/experiments/traffic.go, planet tier) under the
// popularity placement policy with faults and failover, on one engine.
// One repetition is one traffic.Run over a fixed horizon.
type planet struct {
	spec traffic.Spec
}

// planetSpec is the megarow spec with the given seed and horizon, except
// for the control epoch: 5 minutes, not the megarow's 30. A repetition
// must cross epochs to exercise placement writes (replication copies,
// catalog register and unregister). With 30-minute epochs one repetition
// took 7 to 8 s of host time, a 30 s run held four, and the median
// wall-clock rate of ten runs spread 18%. A 10-minute horizon with two
// 5-minute epochs takes about 5 s.
func planetSpec(seed int64, horizon time.Duration) traffic.Spec {
	return traffic.Spec{
		Seed:             seed,
		Topology:         topo.Spec{Regions: 10, SitesPerRegion: 20, ClustersPerSite: 2, HostsPerCluster: 25},
		Files:            2000,
		Replicas:         4,
		FileBytes:        64 << 20,
		RatePerMinute:    60,
		Horizon:          horizon,
		DispatchInterval: 10 * time.Second,
		Epoch:            5 * time.Minute,
		HotFiles:         0.05,
		WarmFiles:        0.25,
		HotShare:         0.7,
		WarmShare:        0.2,
		ZipfS:            1.4,
		DiurnalAmplitude: 0.4,
		DiurnalPeriod:    4 * time.Hour,
		SizesMB:          []int64{1, 2},
		Streams:          1,
		TCPBufferBytes:   1 << 20,
		Failover:         true,
		FaultIntensity:   1,
		Policy:           traffic.PolicyPopularity,
	}
}

// megarowSeed is the spec seed of the megarow itself: gridbench's
// default seed 42 plus the planet tier's offset 2*104729. The workload
// always runs this world. The spec seed also generates the topology, and
// host time per request differs up to fourfold between generated worlds
// (4.3 s to 16.3 s for the same 12k requests over seeds 1 to 5), which
// no run length can average below the benchmark's bounds.
const megarowSeed = 42 + 2*104729

func newPlanet() *planet {
	return &planet{spec: planetSpec(megarowSeed, 10*time.Minute)}
}

// setup is traffic.Run with the horizon cut to one dispatch interval:
// world build, catalog placement, first publish and the first drain.
func (p *planet) setup() error {
	s := p.spec
	s.Horizon = s.DispatchInterval
	rep, err := traffic.Run(s, 1)
	if err != nil {
		return err
	}
	return checkTrafficReport(rep)
}

func (p *planet) rep(bool) (outcome, error) {
	rep, err := traffic.Run(p.spec, 1)
	if err != nil {
		return outcome{}, err
	}
	if err := checkTrafficReport(rep); err != nil {
		return outcome{}, err
	}
	transfers := rep.Completed + rep.Failed
	return outcome{
		ops:    rep.Requests,
		digest: fmt.Sprintf("%+v", *rep),
		sim: []metric{
			{name: "sim_p50_s", unit: "s", value: rep.P50, n: rep.Completed},
			{name: "sim_p99_s", unit: "s", value: rep.P99, n: rep.Completed},
			{name: "sim_goodput_mbps", unit: "Mb/s", value: rep.GoodputMbps, n: rep.Completed},
			{name: "failed_frac", unit: "frac", value: float64(rep.Failed) / float64(rep.Requests), n: rep.Requests},
		},
		counters: map[string]float64{
			"core.selections":              float64(rep.Selections),
			"core.hosts_per_selection":     ratio(float64(rep.HostsScanned), float64(rep.Selections)),
			"simxfer.attempts_per_request": ratio(float64(rep.Attempts), float64(transfers)),
			"traffic.local_hits":           float64(rep.LocalHits),
			"placement.replications":       float64(rep.Replications),
			"placement.removals":           float64(rep.Removals),
		},
	}, nil
}

// checkTrafficReport enforces the request plane's accounting: every
// dispatched request completed, failed or was a local hit; failover made
// at least one attempt per transfer; latency quantiles are ordered.
func checkTrafficReport(r *traffic.Report) error {
	if r.Requests <= 0 {
		return fmt.Errorf("traffic report: no requests dispatched")
	}
	if r.Requests != r.Completed+r.Failed+r.LocalHits {
		return fmt.Errorf("traffic report: requests %d != completed %d + failed %d + local hits %d",
			r.Requests, r.Completed, r.Failed, r.LocalHits)
	}
	if r.Attempts < r.Completed+r.Failed {
		return fmt.Errorf("traffic report: %d attempts for %d finished transfers", r.Attempts, r.Completed+r.Failed)
	}
	if !(r.P50 <= r.P95 && r.P95 <= r.P99) {
		return fmt.Errorf("traffic report: latency quantiles out of order: p50 %v, p95 %v, p99 %v", r.P50, r.P95, r.P99)
	}
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
