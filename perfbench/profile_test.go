package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

func TestFoldByLayerInnermostRepoFrame(t *testing.T) {
	const in = "github.com/hpclab/datagrid/internal/"
	samples := []stackSample{
		// A runtime leaf under a repository function: the allocation or
		// GC assist is charged to the caller.
		{frames: []string{"runtime.mallocgc", "runtime.newobject", in + "netsim.(*Network).reallocate", in + "simulation.(*Engine).Step"}, value: 1},
		// Standard library frames go to their nearest repository caller,
		// not to the outermost one.
		{frames: []string{"sort.insertionSort", "sort.Slice", in + "core.(*SelectionServer).Rank", in + "netsim.(*Network).x"}, value: 2},
		// Closures and methods resolve to their package.
		{frames: []string{in + "traffic.Run.func3", in + "simulation.(*Engine).RunUntil"}, value: 4},
		// No repository frame at all: background GC, scheduler, poller.
		{frames: []string{"runtime.gcBgMarkWorker", "runtime.goexit"}, value: 8},
		{frames: nil, value: 16},
		// The benchmark's own frames, as a command and as a test binary.
		{frames: []string{"bytes.Equal", "main.(*loopback).get"}, value: 32},
		{frames: []string{benchPkg + "burn"}, value: 64},
		// A repository package outside the named layers.
		{frames: []string{in + "coalloc.Plan"}, value: 128},
		// Nested packages fold into their top-level internal package.
		{frames: []string{in + "lint/sub.F"}, value: 256},
	}
	got := foldByLayer(samples)
	want := map[string]float64{
		"netsim": 1, "core": 2, "traffic": 4, "runtime": 8 + 16, "bench": 32 + 64, "other": 128 + 256,
	}
	if len(got) != len(want) {
		t.Errorf("folded into %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("bucket %s = %v, want %v (all: %v)", k, got[k], v, got)
		}
	}
}

var sink float64

//go:noinline
func burn(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1000; i++ {
			sink += math.Sqrt(float64(i))
		}
	}
}

// A real CPU profile of this process decodes, and the time spent in the
// benchmark's own code lands in the bench bucket. Samples without a
// repository frame, such as collector work, may land in runtime.
func TestDecodeCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	burn(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := decodeCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	folded := foldByLayer(samples)
	if folded["bench"] < 0.05 {
		t.Fatalf("bench bucket %.3fs after burning 0.3s in this package (all: %v)", folded["bench"], folded)
	}
	for l, v := range folded {
		if l != "bench" && l != "runtime" && v > 0 {
			t.Errorf("%.3fs charged to %s, a package this test does not run", v, l)
		}
	}
}

func TestDecodeCPUProfileRejectsGarbage(t *testing.T) {
	if _, err := decodeCPUProfile([]byte("not a profile")); err == nil {
		t.Error("garbage decoded without error")
	}
	// A length-delimited field that runs past the end of the message.
	if err := walkProto([]byte{0x12, 0x05, 0x01}, func(int, int, uint64, []byte) error { return nil }); err == nil {
		t.Error("truncated message walked without error")
	}
}
