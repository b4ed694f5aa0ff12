package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime/pprof"
	"strings"
)

// cpuProfile collects CPU profiles of several windows.
type cpuProfile struct {
	buf   bytes.Buffer
	parts [][]byte
}

func (c *cpuProfile) start() error {
	c.buf.Reset()
	return pprof.StartCPUProfile(&c.buf)
}

func (c *cpuProfile) stop() {
	pprof.StopCPUProfile()
	c.parts = append(c.parts, bytes.Clone(c.buf.Bytes()))
}

// shares splits every collected sample by layer.
func (c *cpuProfile) shares() layerShares {
	var s layerShares
	for _, p := range c.parts {
		if err := s.add(p); err != nil {
			s.err = err
		}
	}
	return s
}

// layerShares accumulates CPU-profile samples by simulator layer.
type layerShares struct {
	samples map[string]int64
	total   int64
	err     error
}

// share returns a layer's fraction of the samples and its sampling
// error (two binomial standard deviations).
func (s *layerShares) share(layer string) (frac, spread float64) {
	if s.total == 0 {
		return 0, 0
	}
	p := float64(s.samples[layer]) / float64(s.total)
	return p, 2 * math.Sqrt(p*(1-p)/float64(s.total))
}

// add folds one gzipped pprof profile in. Each sample is charged to the
// innermost frame that belongs to a layer: frames of the associative
// arrays, address and stats helpers, the standard library and the Go
// runtime count for the layer that called them, so an allocation or a
// set lookup lands on the cache, TLB or predictor that made it. A
// sample with no layer frame at all (GC workers, the scheduler) is
// "runtime".
func (s *layerShares) add(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return err
	}
	if s.samples == nil {
		s.samples = map[string]int64{}
	}
	layerOfFunc := map[uint64]string{}
	for id, name := range p.funcName {
		layerOfFunc[id] = layerOf(name)
	}
	for _, smp := range p.samples {
		layer := "runtime"
	frames:
		for _, loc := range smp.locs {
			for _, fn := range p.locFuncs[loc] {
				if l := layerOfFunc[fn]; l != "" {
					layer = l
					break frames
				}
			}
		}
		s.samples[layer] += smp.count
		s.total += smp.count
	}
	return nil
}

// layerOf maps a function's package to the benchmark's layer names; ""
// means the frame is charged to its caller.
func layerOf(fn string) string {
	pkg, _, _ := strings.Cut(fn, "[") // type arguments may hold other paths
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	switch pkg {
	case "repro", "repro/internal/sim":
		return "sim" // the public API is a thin layer over sim
	case "repro/internal/workload", "repro/internal/trace":
		return "workload"
	case "repro/internal/core", "repro/internal/prefetch", "repro/internal/translation":
		return "core" // the translation-path mechanisms and prefetchers
	case "repro/internal/experiments", "repro/internal/report":
		return "experiments"
	}
	for _, l := range []string{"vm", "tlb", "ptwalk", "cache", "dram", "sched", "runner"} {
		if pkg == "repro/internal/"+l {
			return l
		}
	}
	return ""
}

// profileData is the part of a pprof profile the layer split needs.
type profileData struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location -> functions, innermost first
	funcName map[uint64]string
}

type profSample struct {
	locs  []uint64 // leaf first
	count int64
}

// decodeProfile reads the uncompressed profile.proto message (see
// github.com/google/pprof/proto/profile.proto): sample = 2,
// location = 4, function = 5, string_table = 6.
func decodeProfile(b []byte) (*profileData, error) {
	p := &profileData{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]string{}}
	var strs []string
	funcStr := map[uint64]int64{}
	err := eachField(b, func(f int, v uint64, data []byte) error {
		switch f {
		case 2:
			var s profSample
			values := 0
			err := eachField(data, func(f int, v uint64, data []byte) error {
				switch f {
				case 1:
					return eachPacked(v, data, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return eachPacked(v, data, func(x uint64) {
						if values == 0 {
							s.count = int64(x) // value[0] is the sample count
						}
						values++
					})
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(data, func(f int, v uint64, data []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line: function_id = 1
					return eachField(data, func(f int, v uint64, _ []byte) error {
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
			err := eachField(data, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcStr[id] = name
			return err
		case 6:
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, si := range funcStr {
		if si < 0 || int(si) >= len(strs) {
			return nil, errors.New("profile: function name out of the string table")
		}
		p.funcName[id] = strs[si]
	}
	return p, nil
}

// eachField walks one protobuf message. Varint fields arrive in v,
// length-delimited ones in data; fixed-width fields are skipped.
func eachField(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// eachPacked yields a repeated varint field in either encoding: one
// value (v, data == nil) or a packed run (data).
func eachPacked(v uint64, data []byte, fn func(uint64)) error {
	if data == nil {
		fn(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		fn(x)
		data = data[n:]
	}
	return nil
}
