package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"runtime"
	"strings"
)

// layers are the repository's modules a CPU sample is charged to.
var layers = []string{"vtime", "simnet", "pipe", "wire", "jxta", "overlay", "core", "stats",
	"transfer", "workload", "faults", "scenario", "experiments"}

// pathMarkers name the call paths whose inclusive CPU share the traced run
// reports: a sample belongs to a path when any frame of its stack is one of
// the path's functions.
var pathMarkers = map[string][]string{
	"overlay.select_path_share": {"peerlab/internal/overlay.(*Broker).handleSelect"},
	"overlay.discover_path_share": {"peerlab/internal/overlay.(*Broker).handleDiscover",
		"peerlab/internal/overlay.(*Client).Discover"},
}

// profileCounts charges each CPU profile sample to the innermost repository
// layer on its stack (standard-library and runtime frames count toward the
// layer that called them; stacks with no repository frame, such as the
// garbage collector's background workers, count as "runtime"), and to every
// marked path it passes through. Total is the number of samples.
//
// AllocTotal and AllocPaths do the same for the heap profile's sampled
// allocation bytes: the garbage collector's work shows up as "runtime" CPU,
// and the allocation shares say which path made the garbage.
type profileCounts struct {
	Total      int64            `json:"total"`
	Layers     map[string]int64 `json:"layers"`
	Paths      map[string]int64 `json:"paths"`
	AllocTotal int64            `json:"alloc_total"`
	AllocPaths map[string]int64 `json:"alloc_paths"`
}

func (c *profileCounts) add(o profileCounts) {
	if c.Layers == nil {
		c.Layers, c.Paths, c.AllocPaths = map[string]int64{}, map[string]int64{}, map[string]int64{}
	}
	c.Total += o.Total
	c.AllocTotal += o.AllocTotal
	for k, v := range o.Layers {
		c.Layers[k] += v
	}
	for k, v := range o.Paths {
		c.Paths[k] += v
	}
	for k, v := range o.AllocPaths {
		c.AllocPaths[k] += v
	}
}

// onPaths marks in hit every path fn is one of the functions of.
func onPaths(fn string, hit map[string]bool) {
	for path, marks := range pathMarkers {
		for _, m := range marks {
			if fn == m {
				hit[path] = true
			}
		}
	}
}

// attributeAllocs charges the heap profile's sampled allocation bytes so
// far (call after the profiled work and a GC) to the marked paths.
func (c *profileCounts) attributeAllocs() {
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	c.AllocPaths = map[string]int64{}
	for _, r := range recs {
		c.AllocTotal += r.AllocBytes
		hit := map[string]bool{}
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			onPaths(f.Function, hit)
			if !more {
				break
			}
		}
		for path := range hit {
			c.AllocPaths[path] += r.AllocBytes
		}
	}
}

// attribute parses a gzipped pprof CPU profile.
func attribute(gz []byte) (profileCounts, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return profileCounts{}, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return profileCounts{}, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return profileCounts{}, err
	}
	out := profileCounts{Layers: map[string]int64{}, Paths: map[string]int64{}}
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		n := s.values[0]
		out.Total += n
		layer := "runtime"
		onPath := map[string]bool{}
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				name := p.strings[p.funcName[fn]]
				if layer == "runtime" {
					if l := layerOf(name); l != "" {
						layer = l
					}
				}
				onPaths(name, onPath)
			}
		}
		out.Layers[layer] += n
		for path := range onPath {
			out.Paths[path] += n
		}
	}
	return out, nil
}

// layerOf returns the repository package a function belongs to, or "".
func layerOf(fn string) string {
	const prefix = "peerlab/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return ""
	}
	rest := fn[len(prefix):]
	if i := strings.IndexByte(rest, '.'); i > 0 {
		return rest[:i]
	}
	return ""
}

// profile holds the parts of a pprof Profile message attribute needs.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]int64    // function id -> string table index
	strings  []string
}

type sample struct {
	locs   []uint64
	values []int64
}

var errProto = errors.New("malformed profile")

// parseProfile decodes the pprof protobuf wire format (profile.proto):
// Profile{2: sample, 4: location, 5: function, 6: string_table},
// Sample{1: location_id, 2: value}, Location{1: id, 4: line},
// Line{1: function_id}, Function{1: id, 2: name}.
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := fields(b, func(f int, v uint64, data []byte) error {
		switch f {
		case 2:
			var s sample
			err := fields(data, func(f int, v uint64, data []byte) error {
				switch f {
				case 1:
					return uints(v, data, func(u uint64) { s.locs = append(s.locs, u) })
				case 2:
					return uints(v, data, func(u uint64) { s.values = append(s.values, int64(u)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := fields(data, func(f int, v uint64, data []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return fields(data, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := fields(data, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}

// fields walks one message's fields: varints arrive as v, length-delimited
// fields as data (nil for varints). Fixed-width fields are skipped.
func fields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := varint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := varint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, data); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}

// uints yields a repeated integer field's values, packed (data) or not (v).
func uints(v uint64, data []byte, yield func(uint64)) error {
	if data == nil {
		yield(v)
		return nil
	}
	for len(data) > 0 {
		u, n := varint(data)
		if n <= 0 {
			return errProto
		}
		yield(u)
		data = data[n:]
	}
	return nil
}

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
