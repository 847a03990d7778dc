package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"github.com/hpclab/datagrid/internal/ftp"
	"github.com/hpclab/datagrid/internal/gridftp"
)

// loopback is the gridftp-loopback workload: a real GridFTP server over a
// MemStore on 127.0.0.1, driven in-process by one client session in MODE E
// with two data channels. It is a closed loop with one caller. Each size
// class runs in groups of one Put and three Gets: the first Get reads the
// Put back, the other two read resident files. Every Get is compared
// byte for byte with what the client knows the path holds.
type loopback struct {
	small, large [][]byte // payload pools drawn from the seed
	cycles       int      // cycles per repetition
	rng          *rand.Rand

	srv          *gridftp.Server
	client       *gridftp.Client
	want         map[string][]byte // path -> expected content
	puts         map[string]int    // Puts so far per size class
	sessionSetup time.Duration
}

// maxRate caps the run's average transfer rate. Each transfer opens
// fresh data connections and leaves them in TIME_WAIT for a minute, and
// once back-to-back runs fill the kernel's TIME_WAIT table every new
// connection costs several times more: small transfers fell from 3400/s
// to 560/s. At this rate the table stays far from full however runs
// follow each other, so the host's socket history does not decide the
// result.
func (l *loopback) maxRate() float64 { return 60 }

const (
	smallBytes = 64 << 10
	largeBytes = 32 << 20
	// smallGroupsPerCycle small groups run per large group, so both
	// classes collect enough samples and neither dominates a repetition.
	smallGroupsPerCycle = 8
	// The pools double as resident files. Puts cycle through a pool onto
	// one upload path, so every Put replaces the path's content with
	// different bytes and a lost write shows in the read-back.
	smallPool     = 8
	largePool     = 2
	loopbackParal = 2
)

func newLoopback(seed int64, cycles int) *loopback {
	rng := rand.New(rand.NewSource(seed))
	pool := func(n, size int) [][]byte {
		out := make([][]byte, n)
		for i := range out {
			out[i] = make([]byte, size)
			rng.Read(out[i])
		}
		return out
	}
	return &loopback{
		small:  pool(smallPool, smallBytes),
		large:  pool(largePool, largeBytes),
		cycles: cycles,
		rng:    rng,
	}
}

func residentPath(class string, i int) string { return fmt.Sprintf("/%s/res-%d", class, i) }
func uploadPath(class string) string          { return fmt.Sprintf("/%s/up", class) }

// setup starts a fresh server over a freshly filled store and opens the
// client session: dial, login, TYPE I, MODE E and OPTS parallelism.
func (l *loopback) setup() error {
	if err := l.close(); err != nil {
		return err
	}
	store := ftp.NewMemStore()
	l.want = make(map[string][]byte)
	l.puts = make(map[string]int)
	for class, pool := range map[string][][]byte{"small": l.small, "large": l.large} {
		for i, data := range pool {
			if err := store.Put(residentPath(class, i), data); err != nil {
				return err
			}
			l.want[residentPath(class, i)] = data
		}
	}
	srv, err := gridftp.NewServer(gridftp.ServerConfig{Store: store})
	if err != nil {
		return err
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	l.srv = srv
	t0 := time.Now()
	c, err := gridftp.Dial(addr, gridftp.ClientConfig{Parallelism: loopbackParal})
	if err != nil {
		return err
	}
	l.client = c
	if err := c.Login("anonymous", "perfbench"); err != nil {
		return err
	}
	if err := c.Setup(); err != nil {
		return err
	}
	if !c.ModeE() {
		return fmt.Errorf("gridftp-loopback: session not in MODE E after setup")
	}
	l.sessionSetup = time.Since(t0)
	return nil
}

// close ends the session and stops the server.
func (l *loopback) close() error {
	var err error
	if l.client != nil {
		err = l.client.Quit()
		l.client = nil
	}
	if l.srv != nil {
		if cerr := l.srv.Close(); err == nil {
			err = cerr
		}
		l.srv = nil
	}
	return err
}

// opTimes collects host latencies per operation kind.
type opTimes struct {
	getSmall, putSmall, getLarge, putLarge []float64
}

func (l *loopback) get(path string) (time.Duration, error) {
	t0 := time.Now()
	got, err := l.client.Get(path)
	d := time.Since(t0)
	if err != nil {
		return 0, fmt.Errorf("gridftp-loopback: get %s: %w", path, err)
	}
	if want := l.want[path]; !bytes.Equal(got, want) {
		return 0, fmt.Errorf("gridftp-loopback: get %s returned %d bytes that differ from the %d expected", path, len(got), len(want))
	}
	return d, nil
}

// group runs one Put and three verified Gets in one size class.
func (l *loopback) group(class string, pool [][]byte, gets, puts *[]float64) error {
	up, data := uploadPath(class), pool[l.puts[class]%len(pool)]
	l.puts[class]++
	t0 := time.Now()
	if err := l.client.Put(up, data); err != nil {
		return fmt.Errorf("gridftp-loopback: put %s: %w", up, err)
	}
	*puts = append(*puts, time.Since(t0).Seconds())
	l.want[up] = data
	for _, p := range []string{up, residentPath(class, l.rng.Intn(len(pool))), residentPath(class, l.rng.Intn(len(pool)))} {
		d, err := l.get(p)
		if err != nil {
			return err
		}
		*gets = append(*gets, d.Seconds())
	}
	return nil
}

func (l *loopback) rep(trace bool) (outcome, error) {
	if l.client == nil {
		return outcome{}, fmt.Errorf("gridftp-loopback: repetition without a session")
	}
	var t opTimes
	for c := 0; c < l.cycles; c++ {
		for g := 0; g < smallGroupsPerCycle; g++ {
			if err := l.group("small", l.small, &t.getSmall, &t.putSmall); err != nil {
				return outcome{}, err
			}
		}
		if err := l.group("large", l.large, &t.getLarge, &t.putLarge); err != nil {
			return outcome{}, err
		}
	}
	var smallMS, largeMbps []float64
	for _, s := range append(t.getSmall, t.putSmall...) {
		smallMS = append(smallMS, 1e3*s)
	}
	for _, s := range append(t.getLarge, t.putLarge...) {
		largeMbps = append(largeMbps, largeBytes*8/s/1e6)
	}
	out := outcome{
		ops: len(smallMS) + len(largeMbps),
		pooled: []sampleSet{
			{name: "small_p50_ms", unit: "ms", q: 0.50, vals: smallMS},
			{name: "small_p99_ms", unit: "ms", q: 0.99, vals: smallMS},
			{name: "large_mbps", unit: "Mb/s", q: 0.50, vals: largeMbps},
		},
	}
	if trace {
		sum := func(xs []float64) float64 {
			s := 0.0
			for _, x := range xs {
				s += x
			}
			return s
		}
		out.spans = map[string]float64{
			"gridftp.get_small_s": sum(t.getSmall),
			"gridftp.put_small_s": sum(t.putSmall),
			"gridftp.get_large_s": sum(t.getLarge),
			"gridftp.put_large_s": sum(t.putLarge),
			"ftp.session_setup_s": l.sessionSetup.Seconds(),
		}
	}
	return out, nil
}
