package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profBuckets are the shares a CPU profile is split into: one per
// package under ramcloud/internal that the workloads run, then the
// runtime's garbage collector, system calls and scheduler, the
// benchmark's own code, and everything else.
var profBuckets = []string{
	"wire", "hashtable", "logstore", "transport", "realnode",
	"sim", "simnet", "rpc", "server", "client", "coordinator", "core", "ycsb", "energy",
	"machine", "simdisk", "metrics",
	"gc", "syscall", "sched", "bench", "other",
}

const internalPrefix = "ramcloud/internal/"

// gcFrames mark a sample as garbage-collector work wherever they sit in
// the stack: background marking and sweeping, and mark assists that
// allocation charges to whichever goroutine allocated.
var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.gcAssistAlloc":  true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
	"runtime.gcStart":        true,
	"runtime.gcMarkDone":     true,
}

var schedFrames = map[string]bool{
	"runtime.schedule":     true,
	"runtime.findRunnable": true,
	"runtime.mcall":        true,
	"runtime.park_m":       true,
	"runtime.goexit0":      true,
	"runtime.mstart":       true,
	"runtime.gosched_m":    true,
	"runtime.sysmon":       true,
}

// bucketOf charges one stack (innermost frame first) to a bucket.
// Garbage collection wins wherever it appears. Otherwise the innermost
// ramcloud/internal frame decides, so a channel park under
// sim.(*Proc).park counts as sim and a write syscall under the
// transport's flusher counts as transport. Stacks with no such frame
// fall to syscalls, the scheduler, the benchmark, or other.
func bucketOf(frames []string) string {
	for _, f := range frames {
		if gcFrames[f] {
			return "gc"
		}
	}
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, internalPrefix); ok {
			pkg := rest
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			for _, b := range profBuckets {
				if b == pkg {
					return pkg
				}
			}
			return "other"
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "syscall.") || strings.HasPrefix(f, "internal/runtime/syscall.") ||
			strings.HasPrefix(f, "internal/poll.") {
			return "syscall"
		}
	}
	for _, f := range frames {
		if schedFrames[f] {
			return "sched"
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "main.") || strings.HasPrefix(f, "ramcloud/perfbench.") {
			return "bench"
		}
	}
	return "other"
}

// profileShares parses a gzipped pprof CPU profile and returns each
// bucket's share of the sampled CPU time.
func profileShares(data []byte) (map[string]float64, error) {
	stacks, weights, err := parseProfile(data)
	if err != nil {
		return nil, err
	}
	shares := make(map[string]float64, len(profBuckets))
	for _, b := range profBuckets {
		shares[b] = 0
	}
	var total float64
	for i, st := range stacks {
		shares[bucketOf(st)] += float64(weights[i])
		total += float64(weights[i])
	}
	if total > 0 {
		for b := range shares {
			shares[b] /= total
		}
	}
	return shares, nil
}

// parseProfile decodes the parts of a pprof profile.proto the
// attribution needs: each sample's stack as function names (innermost
// first, inlined frames expanded) and its last value (CPU nanoseconds).
func parseProfile(data []byte) ([][]string, []int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	type sampleRec struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []sampleRec
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcs   = map[uint64]int64{}    // function id -> name string index
		strs    []string
	)
	err = eachField(raw, func(num int, wt int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sampleRec
			err := eachField(b, func(num, wt int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendUints(&s.locs, wt, v, b)
				case 2:
					var u []uint64
					if err := appendUints(&u, wt, v, b); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wt int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num, wt int, v uint64, b []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num, wt int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	stacks := make([][]string, 0, len(samples))
	weights := make([]int64, 0, len(samples))
	for _, s := range samples {
		var st []string
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if idx := funcs[f]; idx >= 0 && int(idx) < len(strs) {
					st = append(st, strs[idx])
				}
			}
		}
		var w int64 = 1
		if len(s.values) > 0 {
			w = s.values[len(s.values)-1]
		}
		stacks = append(stacks, st)
		weights = append(weights, w)
	}
	return stacks, weights, nil
}

var errProto = errors.New("profile: malformed protobuf")

// eachField calls fn for every field of one protobuf message: varints
// arrive in v, length-delimited fields in b.
func eachField(buf []byte, fn func(num, wt int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		tag, n := binary.Uvarint(buf)
		if n <= 0 {
			return errProto
		}
		buf = buf[n:]
		num, wt := int(tag>>3), int(tag&7)
		var v uint64
		var b []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errProto
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errProto
			}
			buf = buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errProto
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errProto
			}
			buf = buf[4:]
		default:
			return errProto
		}
		if err := fn(num, wt, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated integer field, packed or not.
func appendUints(dst *[]uint64, wt int, v uint64, b []byte) error {
	if wt == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
