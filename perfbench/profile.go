package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"
)

// The per-layer table attributes every CPU sample and every sampled
// allocation of the profiled repetition to one repository package: the
// innermost frame on the stack that belongs to the repository. Standard
// library and runtime frames below it (a map insert, mallocgc, a GC
// assist) are charged to that repository caller; a stack with no
// repository frame at all (background GC workers, the network poller,
// the scheduler) is charged to "runtime".
const (
	repoInternal = "github.com/hpclab/datagrid/internal/"
	// benchPkg is how the benchmark's own frames are named when it is
	// compiled as a test binary; the command binary names them "main.".
	benchPkg = "github.com/hpclab/datagrid/perfbench."
)

// layers lists the buckets of the per-layer table in report order. The
// first sixteen are the layers the benchmark is designed to separate;
// cluster, topo and faults build the simulated worlds, bench is this
// harness (input generation, byte verification), and other collects any
// remaining repository package.
var layers = []string{
	"netsim", "simulation", "simxfer", "core", "gridstate", "info", "nws", "mds",
	"sysstat", "replica", "placement", "traffic", "metrics", "ftp", "gridftp",
	"runtime", "cluster", "topo", "faults", "bench", "other",
}

// layerOf names the bucket a function belongs to, or "" when the function
// is not repository code.
func layerOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, repoInternal):
		rest := fn[len(repoInternal):]
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		for _, l := range layers {
			if l == rest {
				return l
			}
		}
		return "other"
	case strings.HasPrefix(fn, "main."), strings.HasPrefix(fn, benchPkg):
		return "bench"
	}
	return ""
}

// stackSample is one profile sample: its frames' function names, leaf
// first, and the value it carries.
type stackSample struct {
	frames []string
	value  float64
}

// foldByLayer sums sample values per bucket under the innermost
// repository frame rule.
func foldByLayer(samples []stackSample) map[string]float64 {
	out := make(map[string]float64, len(layers))
	for _, s := range samples {
		l := "runtime"
		for _, fn := range s.frames {
			if pkg := layerOf(fn); pkg != "" {
				l = pkg
				break
			}
		}
		out[l] += s.value
	}
	return out
}

// layerCost is the profiled repetition's cost table.
type layerCost struct {
	cpuS       map[string]float64 // CPU seconds per bucket
	allocMB    map[string]float64 // allocated MB per bucket
	processCPU float64            // user+system CPU seconds of the whole process
}

// profileMemRate is the allocation sampling interval during the profiled
// repetition: fine enough that small layers get samples, coarse enough
// to keep the sampling overhead low.
const profileMemRate = 16 << 10

// profiler captures a CPU profile, an allocation-profile delta and the
// process CPU time over one window.
type profiler struct {
	cpu      bytes.Buffer
	mem0     map[[32]uintptr][2]int64
	rusage0  time.Duration
	prevRate int
}

func startProfiler() (*profiler, error) {
	p := &profiler{prevRate: runtime.MemProfileRate}
	runtime.MemProfileRate = profileMemRate
	p.mem0 = memRecords()
	var err error
	if p.rusage0, err = processCPU(); err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(&p.cpu); err != nil {
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	return p, nil
}

func (p *profiler) stop() (layerCost, error) {
	pprof.StopCPUProfile()
	ru, err := processCPU()
	if err != nil {
		return layerCost{}, err
	}
	mem1 := memRecords()
	runtime.MemProfileRate = p.prevRate

	cpuSamples, err := decodeCPUProfile(p.cpu.Bytes())
	if err != nil {
		return layerCost{}, err
	}
	cost := layerCost{
		cpuS:       foldByLayer(cpuSamples),
		allocMB:    foldByLayer(memDelta(p.mem0, mem1)),
		processCPU: (ru - p.rusage0).Seconds(),
	}
	return cost, nil
}

// processCPU returns the process's user plus system CPU time.
func processCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// memRecords returns the allocation profile's cumulative (objects, bytes)
// per stack. Two collections first publish every allocation made so far.
func memRecords() map[[32]uintptr][2]int64 {
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		n, ok = runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
	}
	out := make(map[[32]uintptr][2]int64, len(recs))
	for _, r := range recs {
		c := out[r.Stack0]
		out[r.Stack0] = [2]int64{c[0] + r.AllocObjects, c[1] + r.AllocBytes}
	}
	return out
}

// memDelta turns the allocations sampled between two snapshots into
// stack samples valued in MB, unsampled the way pprof does: each stack's
// sampled bytes are scaled by 1/(1-exp(-avg/rate)).
func memDelta(before, after map[[32]uintptr][2]int64) []stackSample {
	var out []stackSample
	for stk, a := range after {
		b := before[stk]
		objs, byts := a[0]-b[0], a[1]-b[1]
		if objs <= 0 || byts <= 0 {
			continue
		}
		avg := float64(byts) / float64(objs)
		scale := 1 / (1 - math.Exp(-avg/float64(profileMemRate)))
		out = append(out, stackSample{frames: frameNames(stk[:]), value: float64(byts) * scale / 1e6})
	}
	return out
}

// frameNames symbolizes a return-PC stack, inlined frames included, leaf
// first.
func frameNames(pcs []uintptr) []string {
	n := 0
	for n < len(pcs) && pcs[n] != 0 {
		n++
	}
	frames := runtime.CallersFrames(pcs[:n])
	var names []string
	for {
		f, more := frames.Next()
		names = append(names, f.Function)
		if !more {
			return names
		}
	}
}

var errBadProfile = errors.New("malformed profile")

// decodeCPUProfile parses a gzipped pprof protobuf CPU profile into
// stack samples valued in CPU seconds. Only the fields the folding needs
// are read: sample types, samples, locations with their line records,
// functions and the string table.
func decodeCPUProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct{ locs, values []uint64 }
	var (
		sampleTypes []uint64 // string index of each value's type
		samples     []sample
		locFuncs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames   = map[uint64]uint64{}   // function id -> string index
		strs        []string
	)
	err = walkProto(raw, func(field, wire int, v uint64, data []byte) error {
		switch field {
		case 1: // sample_type
			return walkProto(data, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 {
					sampleTypes = append(sampleTypes, v)
				}
				return nil
			})
		case 2: // sample
			var s sample
			err := walkProto(data, func(f, w int, v uint64, d []byte) error {
				var err error
				switch f {
				case 1:
					s.locs, err = appendVarints(s.locs, w, v, d)
				case 2:
					s.values, err = appendVarints(s.values, w, v, d)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walkProto(data, func(f, _ int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walkProto(d, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := walkProto(data, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			if wire != 2 {
				return errBadProfile
			}
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	cpuIdx := -1
	for i, t := range sampleTypes {
		if str(t) == "cpu" {
			cpuIdx = i
		}
	}
	if cpuIdx < 0 {
		return nil, fmt.Errorf("cpu profile: no cpu sample type: %w", errBadProfile)
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if cpuIdx >= len(s.values) {
			return nil, fmt.Errorf("cpu profile: sample without cpu value: %w", errBadProfile)
		}
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				frames = append(frames, str(funcNames[fn]))
			}
		}
		out = append(out, stackSample{frames: frames, value: float64(s.values[cpuIdx]) / 1e9})
	}
	return out, nil
}

// walkProto calls fn for each field of one protobuf message: varint and
// fixed-width values arrive in v, length-delimited ones in data.
func walkProto(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadProfile
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errBadProfile
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errBadProfile
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errBadProfile
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errBadProfile
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errBadProfile
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field that may arrive packed
// (one length-delimited run) or unpacked (one varint per occurrence).
func appendVarints(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	if wire != 2 {
		return dst, errBadProfile
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return dst, errBadProfile
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst, nil
}
