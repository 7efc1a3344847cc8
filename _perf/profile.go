package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"path"
	"strings"
)

// The traced run's *.cpu_frac metrics are self time from a
// runtime/pprof CPU profile, grouped by layer. The decoder below reads
// just the fields of profile.proto that self time needs: each sample's
// leaf location and CPU value, the location's innermost function, and
// that function's name and file.

// cpuLayer names the layer a function's self time belongs to: the
// repository package, with internal/core split by source file, the Go
// runtime, the rest of the standard library, and the benchmark itself.
func cpuLayer(fn, file string) string {
	pkg := fn
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case pkg == "lfs/internal/core":
		switch base := strings.TrimSuffix(path.Base(file), ".go"); base {
		case "cleaner", "writer", "checkpoint", "dir":
			return "core." + base
		}
		return "core.other"
	case strings.HasPrefix(pkg, "lfs/internal/"):
		return strings.TrimPrefix(pkg, "lfs/internal/")
	case pkg == "main":
		return "bench"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal") || strings.HasPrefix(pkg, "internal/runtime"):
		return "runtime"
	}
	return "stdlib"
}

// cpuLayers lists every layer reported, in output order.
var cpuLayers = []string{
	"layout", "cache", "core.cleaner", "core.writer", "core.checkpoint", "core.dir", "core.other",
	"disk", "sim", "sched", "server", "shard", "obs", "vfs", "runtime", "stdlib", "bench",
}

// selfTime adds each layer's CPU nanoseconds in the gzipped profile to
// into and returns the profile's total.
func selfTime(prof []byte, into map[string]int64) (int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(prof))
	if err != nil {
		return 0, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return 0, err
	}
	type sample struct {
		leaf  uint64
		value int64
	}
	var (
		samples []sample
		locFn   = map[uint64]uint64{} // location id -> innermost function id
		fnName  = map[uint64][2]int64{}
		strs    []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			var locs, vals []uint64
			if err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					locs = appendVarints(locs, v, b)
				case 2:
					vals = appendVarints(vals, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(locs) == 0 || len(vals) == 0 {
				return nil
			}
			// A Go CPU profile's values are (samples, nanoseconds).
			s.leaf = locs[0]
			s.value = int64(vals[len(vals)-1])
			samples = append(samples, s)
		case 4: // location
			var id, fn uint64
			if err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line; the first is the innermost inlined call
					if fn == 0 {
						return eachField(b, func(n int, v uint64, _ []byte) error {
							if n == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			}); err != nil {
				return err
			}
			locFn[id] = fn
		case 5: // function
			var id uint64
			var nf [2]int64
			if err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					nf[0] = int64(v)
				case 4:
					nf[1] = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			fnName[id] = nf
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	var total int64
	for _, s := range samples {
		layer := "runtime" // a frame without symbols (vdso, signal trampolines)
		if nf, ok := fnName[locFn[s.leaf]]; ok {
			if nf[0] >= int64(len(strs)) || nf[1] >= int64(len(strs)) {
				return 0, fmt.Errorf("profile: string index out of range")
			}
			layer = cpuLayer(strs[nf[0]], strs[nf[1]])
		}
		into[layer] += s.value
		total += s.value
	}
	return total, nil
}

// eachField calls fn for every field of a protobuf message: the field
// number, the value of a varint field, or the bytes of a
// length-delimited one.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := varint(b)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := varint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("profile: bad length")
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, data); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("profile: short fixed64")
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated integer field's values, packed
// (data set) or not.
func appendVarints(out []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(out, v)
	}
	for len(data) > 0 {
		x, n := varint(data)
		if n <= 0 {
			break
		}
		out = append(out, x)
		data = data[n:]
	}
	return out
}

// varint decodes one base-128 varint, returning it and its length (0
// when truncated).
func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
