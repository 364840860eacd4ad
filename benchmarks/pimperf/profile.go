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

// layerPrefix marks a function of one of the program's modules; the path
// element after it names the layer.
const layerPrefix = "pim/internal/"

// runtimeBucket takes every sample with no program frame on its stack: the
// collector's background workers, the scheduler, the profiler itself.
const runtimeBucket = "runtime"

// profileBuckets decodes a runtime/pprof CPU profile and charges every
// sample to the innermost pim/internal/<pkg> frame on its stack, else to
// runtimeBucket. It returns samples per bucket. The reader knows just enough
// of the profile.proto wire format for that: samples (field 2), locations
// (4), functions (5) and the string table (6).
func profileBuckets(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	var (
		samples   [][]uint64              // location ids, leaf first
		weights   []int64                 // first value of each sample: its count
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id -> string table index
		strs      []string
	)
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2:
			var locs, vals []uint64
			if err := eachField(b, func(f int, v uint64, pb []byte) error {
				switch f {
				case 1:
					locs = appendVarints(locs, v, pb)
				case 2:
					vals = appendVarints(vals, v, pb)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(vals) > 0 {
				samples = append(samples, locs)
				weights = append(weights, int64(vals[0]))
			}
		case 4:
			var id uint64
			var funcs []uint64
			if err := eachField(b, func(f int, v uint64, lb []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(lb, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = funcs
		case 5:
			var id, name uint64
			if err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcNames[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	buckets := map[string]int64{}
	for i, locs := range samples {
		buckets[bucketOf(locs, locFuncs, funcNames, strs)] += weights[i]
	}
	return buckets, nil
}

func bucketOf(locs []uint64, locFuncs map[uint64][]uint64, funcNames map[uint64]uint64, strs []string) string {
	for _, loc := range locs {
		for _, fn := range locFuncs[loc] {
			idx := funcNames[fn]
			if idx >= uint64(len(strs)) {
				continue
			}
			if rest, ok := strings.CutPrefix(strs[idx], layerPrefix); ok {
				if end := strings.IndexAny(rest, "./"); end > 0 {
					return rest[:end]
				}
			}
		}
	}
	return runtimeBucket
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message. Varint fields arrive in v with b
// nil, length-delimited fields in b; fixed-width fields are skipped.
func eachField(b []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(b) < size {
				return errTruncated
			}
			b = b[size:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			if err := fn(field, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		default:
			return fmt.Errorf("protobuf wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated integer field in either encoding: one
// value (packed nil) or a packed run.
func appendVarints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}
