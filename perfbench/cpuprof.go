package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU profile written by runtime/pprof is a gzipped profile.proto
// message. The standard library has no reader for it, so this file
// decodes the few fields the layer split needs: samples (location IDs
// and values), locations (their inlined function lines), functions
// (their names) and the string table.

const repoPkgPrefix = "github.com/trap-repro/trap/internal/"

// cpuByPackage returns CPU nanoseconds per repository package (the
// leaf-most frame of a sample that lies in internal/<pkg> is charged, so
// allocation and runtime helpers count toward the layer that called
// them) and the total over all samples. Samples with no repository frame
// (GC workers, the benchmark, net/http) count only toward the total.
func cpuByPackage(profile []byte) (map[string]int64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs []uint64
		vals []int64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location ID -> function IDs, leaf first
		funcNames = map[uint64]int64{}    // function ID -> string index
		strs      []string
		types     int
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			types++
		case 2: // sample
			var s sample
			if err := fields(b, func(n int, v uint64, bb []byte) error {
				switch n {
				case 1:
					s.locs = appendVarints(s.locs, v, bb)
				case 2:
					for _, u := range appendVarints(nil, v, bb) {
						s.vals = append(s.vals, int64(u))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			if err := fields(b, func(n int, v uint64, bb []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // Line{function_id, line}
					return fields(bb, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // function
			var id uint64
			var name int64
			if err := fields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	// A CPU profile's sample types are (samples/count, cpu/nanoseconds).
	const nsIndex = 1
	if types != 2 {
		return nil, 0, fmt.Errorf("cpu profile: %d sample types, want 2", types)
	}
	byPkg := map[string]int64{}
	var total int64
	for _, s := range samples {
		if nsIndex >= len(s.vals) {
			continue
		}
		ns := s.vals[nsIndex]
		total += ns
	frames:
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx := funcNames[fn]
				if idx < 0 || int(idx) >= len(strs) {
					continue
				}
				if pkg, ok := repoPackage(strs[idx]); ok {
					byPkg[pkg] += ns
					break frames
				}
			}
		}
	}
	return byPkg, total, nil
}

// repoPackage maps a function name such as
// "github.com/trap-repro/trap/internal/nn.(*Tensor).Add" to "nn".
func repoPackage(fn string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, repoPkgPrefix)
	if !ok {
		return "", false
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest, rest != ""
}

// appendVarints appends a repeated uint64 field that arrived either as
// one varint (v) or packed (b != nil).
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := varint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}

// fields walks the top-level fields of a protobuf message, calling f
// with the field number and either the varint value or the bytes of a
// length-delimited field.
func fields(b []byte, f func(num int, v uint64, bytes []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n <= 0 {
			return errors.New("cpu profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := varint(b)
			if n <= 0 {
				return errors.New("cpu profile: bad varint")
			}
			b = b[n:]
			if err := f(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("cpu profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := varint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("cpu profile: bad length")
			}
			body := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := f(num, 0, body); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("cpu profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("cpu profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// varint decodes a base-128 varint, returning the value and its length
// (0 when b is truncated).
func varint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}
