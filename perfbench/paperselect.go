package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"github.com/hpclab/datagrid/internal/cluster"
	"github.com/hpclab/datagrid/internal/core"
	"github.com/hpclab/datagrid/internal/info"
	"github.com/hpclab/datagrid/internal/replica"
	"github.com/hpclab/datagrid/internal/simulation"
	"github.com/hpclab/datagrid/internal/simxfer"
)

// paperSelect is the paper's own scenario: the three-cluster testbed with
// its load and cross-traffic dynamics, the NWS/MDS/sysstat monitoring
// stack, and the 80/10/10 selection server feeding GridFTP fetches to the
// user's host alpha1. One repetition builds the grid, warms the monitors
// up and replays the same open-loop fetch stream.
type paperSelect struct {
	seed int64
	// hosts[i] are the replica holders of file i; arrivals is the fetch
	// stream, offsets from the end of the warm-up.
	hosts    [][]string
	arrivals []arrival
	load     time.Duration

	sys *paperGrid // built by setup, consumed by rep
	// submitted accumulates host time inside simxfer.Submit when traced.
	submitted time.Duration
	trace     bool
	attempts  int
}

type arrival struct {
	at   time.Duration
	file int
}

// paperGrid is one built instance of the scenario.
type paperGrid struct {
	engine  *simulation.Engine
	dep     *info.Deployment
	catalog *replica.Catalog
	app     *core.Application
}

const (
	paperLocal     = "alpha1"
	paperFiles     = 200
	paperFileBytes = 8 << 20
	paperRate      = 120 // fetches per virtual minute
	paperZipfS     = 1.2
	paperStreams   = 4
	// paperWarmup fills the NWS forecaster history and the sysstat and
	// MDS caches before the first fetch.
	paperWarmup = 5 * time.Minute
	// paperSettle bounds how long after the stream the last fetch may
	// take to land.
	paperSettle = time.Hour
)

func fileName(i int) string { return fmt.Sprintf("lfn-%03d", i) }

// newPaperSelect lays out the catalog and draws the fetch stream from the
// seed: a Poisson stream over the load window whose files follow
// Zipf(1.2). The catalog is the same for every seed: each file has one
// replica at each of the three sites, dealt round-robin over the site's
// hosts other than alpha1. Replicas drawn from the seed moved host time
// per fetch by 18% between seeds (interquartile range over five seeds),
// as it mattered which hosts held the few hot files; and a file whose
// replicas all sit behind Li-Zen's 30 Mb/s uplink fails selection once
// fetch traffic starves that site's monitor probes.
func newPaperSelect(seed int64, load time.Duration) *paperSelect {
	var sites [][]string
	for _, site := range cluster.PaperConfig().Sites {
		var hs []string
		for _, h := range site.Hosts {
			if h.Name != paperLocal {
				hs = append(hs, h.Name)
			}
		}
		sites = append(sites, hs)
	}
	p := &paperSelect{seed: seed, load: load}
	for i := 0; i < paperFiles; i++ {
		hs := make([]string, len(sites))
		for j, site := range sites {
			hs[j] = site[i%len(site)]
		}
		p.hosts = append(p.hosts, hs)
	}
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, paperZipfS, 1, paperFiles-1)
	meanGap := float64(time.Minute) / paperRate
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() * meanGap)
		if t >= load {
			break
		}
		p.arrivals = append(p.arrivals, arrival{at: t, file: int(zipf.Uint64())})
	}
	return p
}

// setup builds the testbed, the monitors, the catalog, the selection
// server and the client application, then runs the monitor warm-up.
func (p *paperSelect) setup() error {
	engine := simulation.NewEngine()
	tb, err := cluster.NewPaperTestbed(engine, p.seed)
	if err != nil {
		return err
	}
	if err := cluster.StartPaperDynamics(tb, p.seed); err != nil {
		return err
	}
	dep, err := info.Deploy(tb, info.DeploymentConfig{Local: paperLocal, Seed: p.seed})
	if err != nil {
		return err
	}
	cat := replica.NewCatalog()
	for i, hs := range p.hosts {
		name := fileName(i)
		if err := cat.CreateLogical(replica.LogicalFile{Name: name, SizeBytes: paperFileBytes}); err != nil {
			return err
		}
		for _, h := range hs {
			if err := cat.Register(name, replica.Location{Host: h, Path: "/data/" + name}); err != nil {
				return err
			}
		}
	}
	sel, err := core.NewSelectionServer(cat, dep.Server, core.PaperWeights, nil)
	if err != nil {
		return err
	}
	xfer, err := simxfer.New(tb)
	if err != nil {
		return err
	}
	transfer := func(src, _, dst, _ string, bytes int64, done func(error)) error {
		var t0 time.Time
		if p.trace {
			t0 = time.Now()
		}
		err := xfer.Submit(simxfer.Request{
			Sources: []string{src},
			Dst:     dst,
			Bytes:   bytes,
			Options: simxfer.GridFTPOptions(paperStreams),
			Done: func(r simxfer.Result) {
				p.attempts += max(1, len(r.Attempts))
				done(r.Err)
			},
		})
		if p.trace {
			p.submitted += time.Since(t0)
		}
		return err
	}
	app, err := core.NewApplication(core.ApplicationConfig{Local: paperLocal}, sel, transfer, engine)
	if err != nil {
		return err
	}
	if err := engine.RunUntil(paperWarmup); err != nil {
		return err
	}
	p.sys = &paperGrid{engine: engine, dep: dep, catalog: cat, app: app}
	return nil
}

// fetchRecord is one fetch's observed outcome.
type fetchRecord struct {
	calls int
	// startErr is Fetch's own error return: the fetch failed before a
	// transfer started, and no callback is due.
	startErr error
	err      error
	chosen   string
	start    time.Duration
	finish   time.Duration
}

func (p *paperSelect) rep(trace bool) (outcome, error) {
	g := p.sys
	if g == nil {
		return outcome{}, errors.New("paper-select: repetition without a fresh setup")
	}
	p.sys = nil
	p.trace, p.submitted, p.attempts = trace, 0, 0
	defer func() { p.trace = false }()

	base := g.engine.Now()
	epoch0 := g.dep.Server.Publisher().Epoch()
	fired0 := g.engine.Fired()
	probes0, queries0 := nwsProbes(g.dep), giisQueries(g.dep)

	recs := make([]fetchRecord, len(p.arrivals))
	var fetching time.Duration // host time inside Fetch, traced only
	pending := len(p.arrivals)
	for i, a := range p.arrivals {
		name := fileName(a.file)
		if _, err := g.engine.Schedule(base+a.at, func(time.Duration) {
			var t0 time.Time
			if trace {
				t0 = time.Now()
			}
			err := g.app.Fetch(name, func(r core.FetchResult, err error) {
				rec := &recs[i]
				rec.calls++
				if rec.calls == 1 {
					pending--
				}
				rec.err, rec.chosen, rec.start, rec.finish = err, r.Chosen.Location.Host, r.Started, r.Finished
			})
			if trace {
				fetching += time.Since(t0)
			}
			if err != nil {
				recs[i].startErr = err
				pending--
			}
		}); err != nil {
			return outcome{}, err
		}
	}
	runStart := time.Now()
	deadline := base + p.load
	for pending > 0 {
		if deadline > base+p.load+paperSettle {
			return outcome{}, fmt.Errorf("paper-select: %d fetches still pending at %v", pending, deadline)
		}
		if err := g.engine.RunUntil(deadline); err != nil {
			return outcome{}, err
		}
		deadline += time.Minute
	}
	runTime := time.Since(runStart)

	// Correctness: each callback fired exactly once, every chosen host
	// holds a registered replica of the requested file.
	var (
		lat         []float64
		failed      int
		selections  int
		hostsRanked int
		bytesDone   int64
		first, last time.Duration = -1, 0
	)
	h := fnv.New64a()
	for i, rec := range recs {
		a := p.arrivals[i]
		want := 1
		if rec.startErr != nil {
			want = 0
		}
		if rec.calls != want {
			return outcome{}, fmt.Errorf("paper-select: fetch %d of %s completed %d times, want %d (start error %v)",
				i, fileName(a.file), rec.calls, want, rec.startErr)
		}
		fmt.Fprintf(h, "%d %s %d %d %v %v;", i, rec.chosen, rec.start, rec.finish, rec.err, rec.startErr)
		if rec.err != nil || rec.startErr != nil {
			failed++
			continue
		}
		locs, err := g.catalog.Locations(fileName(a.file))
		if err != nil {
			return outcome{}, err
		}
		selections++
		hostsRanked += len(locs)
		registered := false
		for _, l := range locs {
			registered = registered || l.Host == rec.chosen
		}
		if !registered {
			return outcome{}, fmt.Errorf("paper-select: fetch %d of %s served by %q, which holds no registered replica",
				i, fileName(a.file), rec.chosen)
		}
		lat = append(lat, (rec.finish - rec.start).Seconds())
		bytesDone += paperFileBytes
		if first < 0 || rec.start < first {
			first = rec.start
		}
		last = max(last, rec.finish)
	}
	ops := len(p.arrivals)
	rebuilds := g.dep.Server.Publisher().Epoch() - epoch0
	events := g.engine.Fired() - fired0
	counters := map[string]float64{
		"core.selections":              float64(selections),
		"core.hosts_per_selection":     ratio(float64(hostsRanked), float64(selections)),
		"simxfer.attempts_per_request": ratio(float64(p.attempts), float64(selections)),
		"gridstate.rebuilds_per_fetch": float64(rebuilds) / float64(ops),
		"nws.probes":                   float64(nwsProbes(g.dep) - probes0),
		"mds.giis_queries":             float64(giisQueries(g.dep) - queries0),
		"simulation.events_per_op":     float64(events) / float64(ops),
	}
	fmt.Fprintf(h, "%v", counters) // fmt prints map keys sorted
	out := outcome{
		ops:    ops,
		failed: failed,
		digest: fmt.Sprintf("%x", h.Sum64()),
		sim: []metric{
			{name: "sim_p50_s", unit: "s", value: percentile(lat, 0.50), n: len(lat)},
			{name: "sim_p99_s", unit: "s", value: percentile(lat, 0.99), n: len(lat)},
			{name: "sim_p999_s", unit: "s", value: percentile(lat, 0.999), n: len(lat)},
			{name: "sim_goodput_mbps", unit: "Mb/s", value: float64(bytesDone) * 8 / (last - first).Seconds() / 1e6, n: len(lat)},
			{name: "failed_frac", unit: "frac", value: float64(failed) / float64(ops), n: ops},
		},
		counters: counters,
	}
	if trace {
		out.spans = map[string]float64{
			"core.fetch_self_s": (fetching - p.submitted).Seconds(),
			"simxfer.submit_s":  p.submitted.Seconds(),
			"simulation.run_s":  (runTime - fetching).Seconds(),
		}
	}
	return out, nil
}

func nwsProbes(d *info.Deployment) int {
	n := 0
	for _, s := range d.Sensors {
		n += s.Probes()
	}
	return n
}

func giisQueries(d *info.Deployment) int {
	n := d.TopGIIS.Queries()
	for _, g := range d.SiteGIIS {
		n += g.Queries()
	}
	return n
}
