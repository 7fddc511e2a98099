package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"strings"
)

// cpuProfile is the part of a runtime/pprof CPU profile the benchmark
// needs: every sample's stack as function names, leaf first, with its CPU
// time. It is decoded here from the profile.proto wire format because the
// module takes no third-party dependency.
type cpuProfile struct {
	samples []profSample
}

type profSample struct {
	stack []string // function names, innermost first (inlined frames included)
	cpuNs int64
}

// parseCPUProfile decodes a gzipped profile.proto CPU profile.
func parseCPUProfile(data []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []rawSample
		locLines  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> string index
		strs      []string
		period    int64
	)
	err = walkFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s rawSample
			err := walkFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, w, v, b)
				case 2:
					for _, x := range appendPacked(nil, w, v, b) {
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
			err := walkFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walkFields(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := walkFields(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		case 12:
			period = int64(v)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &cpuProfile{}
	for _, s := range samples {
		ps := profSample{}
		// The CPU profile's values are [sample count, cpu nanoseconds].
		switch {
		case len(s.values) >= 2:
			ps.cpuNs = s.values[1]
		case len(s.values) == 1:
			ps.cpuNs = s.values[0] * period
		}
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				idx := funcNames[fn]
				if idx >= 0 && int(idx) < len(strs) {
					ps.stack = append(ps.stack, strs[idx])
				}
			}
		}
		p.samples = append(p.samples, ps)
	}
	return p, nil
}

// walkFields calls fn for every top-level field of a protobuf message:
// varints arrive in v, length-delimited fields in b.
func walkFields(data []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := uvarint(data)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		data = data[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = uvarint(data)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint")
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return fmt.Errorf("profile: short fixed64")
			}
			data = data[8:]
		case 2:
			l, n := uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return fmt.Errorf("profile: bad length")
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return fmt.Errorf("profile: short fixed32")
			}
			data = data[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field in either encoding.
func appendPacked(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// profileLayer names a layer attributed from the CPU profile by the entry
// function found on a sample's stack.
type profileLayer struct {
	name  string
	entry []string // function names; the innermost match on a stack wins
}

// profileLayers lists the layers that have no boundary the benchmark can
// time from outside, plus the Env-boundary layers (so that their samples
// are not counted twice), innermost-first in precedence only where
// stacks nest: a sample is charged to the layer of the innermost frame
// that matches any entry.
var profileLayers = []profileLayer{
	{"ml.train", []string{"roadrunner/internal/ml.(*Network).Train"}},
	{"ml.eval", []string{"roadrunner/internal/core.(*Experiment).TestAccuracy"}},
	{"ml.aggregate", []string{"roadrunner/internal/core.(*Experiment).Aggregate"}},
	{"comm.send", []string{"roadrunner/internal/core.(*Experiment).Send"}},
	{"mobility.neighbors", []string{"roadrunner/internal/core.(*Experiment).Neighbors"}},
	{"mobility.tick", []string{"roadrunner/internal/core.(*Experiment).tick"}},
	{"strategy.callback", []string{"main.(*tracedStrategy).", "main.(*tracedEnv).After."}},
	{"sim.dispatch", []string{"roadrunner/internal/sim.(*Engine).Run"}},
	{"roadnet.setup", []string{"roadrunner/internal/roadnet.Generate"}},
	{"mobility.setup", []string{"roadrunner/internal/mobility.Generate", "roadrunner/internal/mobility.NewReplayer"}},
	{"dataset.setup", []string{"roadrunner/internal/core.(*Experiment).prepareData"}},
	{"ml.setup", []string{"roadrunner/internal/core.(*Experiment).prepareModels"}},
	{"setup.other", []string{"roadrunner/internal/core.New"}},
}

// attribute charges every sample's CPU seconds to one profile layer, or to
// "unattributed" when no entry function is on its stack (garbage
// collection on other threads, the runtime, the benchmark itself).
func (p *cpuProfile) attribute() map[string]float64 {
	out := map[string]float64{"unattributed": 0}
	for _, l := range profileLayers {
		out[l.name] = 0
	}
	for _, s := range p.samples {
		out[classify(s.stack)] += float64(s.cpuNs) / 1e9
	}
	return out
}

func classify(stack []string) string {
	for _, fn := range stack {
		for _, l := range profileLayers {
			for _, e := range l.entry {
				if fn == e || (strings.HasSuffix(e, ".") && strings.HasPrefix(fn, e)) {
					return l.name
				}
			}
		}
	}
	return "unattributed"
}
