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

// cpuModules are the profile buckets, in report order: the repository
// modules a sample is charged to, then garbage collection, then the rest
// (harness, runtime scheduler, standard library called from no module).
var cpuModules = []string{
	"sim", "workload", "scheduler", "cluster", "monitor", "tsdb", "core",
	"federate", "runner", "stats", "gc", "other",
}

const modulePrefix = "repro/internal/"

// cpuShares attributes a runtime/pprof CPU profile to modules. A sample
// belongs to gc when any frame on its stack is collector work (background
// marking, assists, sweeping, write barriers); otherwise to the innermost
// frame from a repository module, so standard-library and allocator time is
// charged to the module that called it. The shares sum to one.
func cpuShares(gz []byte) (map[string]float64, int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	weight := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		v := s.values[len(s.values)-1]
		weight[p.bucket(s.locs)] += v
		total += v
	}
	out := make(map[string]float64, len(cpuModules))
	for m, w := range weight {
		out[m] = float64(w) / float64(total)
	}
	return out, len(p.samples), nil
}

func (p *profile) bucket(locs []uint64) string {
	module := ""
	for _, id := range locs { // leaf first
		for _, fn := range p.locFuncs[id] { // innermost inlined frame first
			name := p.funcNames[fn]
			if isGC(name) {
				return "gc"
			}
			if module == "" && strings.HasPrefix(name, modulePrefix) {
				m := name[len(modulePrefix):]
				if i := strings.IndexAny(m, "./"); i >= 0 {
					m = m[:i]
				}
				module = m
			}
		}
	}
	for _, m := range cpuModules {
		if m == module {
			return m
		}
	}
	return "other"
}

func isGC(fn string) bool {
	if strings.HasPrefix(fn, "runtime.gc") {
		return true
	}
	switch fn {
	case "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone", "runtime.markroot",
		"runtime.scanobject", "runtime.wbBufFlush", "runtime.wbBufFlush1":
		return true
	}
	return false
}

// profile holds the parts of a profile.proto message the attribution needs.
type profile struct {
	samples   []profSample
	locFuncs  map[uint64][]uint64 // location id → function ids, innermost first
	funcNames map[uint64]string   // function id → name
}

type profSample struct {
	locs   []uint64
	values []int64
}

// parseProfile decodes the uncompressed profile.proto fields used here:
// Profile.sample (2), .location (4), .function (5) and .string_table (6).
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]string{}}
	var strs []string
	funcName := map[uint64]int64{}
	err := eachField(b, func(field int, wire int, v uint64, data []byte) error {
		switch field {
		case 2:
			var s profSample
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					s.locs = appendUints(s.locs, w, v, d)
				case 2:
					for _, u := range appendUints(nil, w, v, d) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var funcs []uint64
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(d, func(lf, lw int, lv uint64, _ []byte) error {
						if lf == 1 {
							funcs = append(funcs, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = funcs
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, si := range funcName {
		if si < 0 || si >= int64(len(strs)) {
			return nil, fmt.Errorf("profile: function %d names string %d of %d", id, si, len(strs))
		}
		p.funcNames[id] = strs[si]
	}
	return p, nil
}

// appendUints adds a repeated uint64 field's value, packed (wire type 2) or
// not.
func appendUints(dst []uint64, wire int, v uint64, data []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(data) > 0 {
		u, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		data = data[n:]
	}
	return dst
}

var errTruncated = errors.New("profile: truncated message")

// eachField walks one protobuf message, calling fn with each field's number,
// wire type, varint value (wire types 0, 1, 5) or payload (wire type 2).
func eachField(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
