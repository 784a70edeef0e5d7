package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// A CPU profile is a gzipped profile.proto message. The standard library
// writes it but has no public reader, so this file decodes the few
// fields folding needs: samples with their location stacks, locations
// with their (inlined) lines, function names and the string table.

// stack is one sample: function names leaf first, inlined frames
// expanded, and the sample's CPU nanoseconds.
type stack struct {
	frames []string
	ns     int64
}

const modulePrefix = "odpsim/internal/"

// layers are the module's packages a sample's self time can go to; a
// package under internal/ that is not listed folds into "other".
var layers = []string{
	"sim", "rnic", "odp", "hostmem", "npr", "irn", "packet", "fabric",
	"congestion", "telemetry", "shard", "parallel", "cluster", "ucx",
	"apps", "core", "scenario", "stats", "other", "runtime",
}

// entryPoints are cumulative timings: a sample counts once toward an
// entry point when any frame of its stack is one of the listed functions
// or a closure inside one. Names drop the module prefix and
// pointer-receiver syntax. Group.Run hands its domains to lane
// goroutines started by startWorkers, whose stacks do not include
// Group.Run, so the lanes are listed with it.
var entryPoints = []struct {
	metric string
	funcs  []string
}{
	{"sim.run_s", []string{"sim.Engine.Run", "sim.Engine.RunUntil", "sim.Engine.RunHorizon"}},
	{"rnic.create_qp_s", []string{"rnic.RNIC.CreateQP"}},
	{"fabric.send_s", []string{"fabric.Port.Send"}},
	{"cluster.build_s", []string{"cluster.System.Build", "cluster.System.BuildOn"}},
	{"shard.run_s", []string{"shard.Group.Run", "shard.Group.startWorkers"}},
	{"telemetry.register_s", []string{"telemetry.Registry.Counter", "telemetry.Registry.Gauge"}},
	{"telemetry.snapshot_s", []string{"telemetry.Hub.Snapshot", "telemetry.Registry.Snapshot"}},
}

// heapFuncs are the event heap's own functions; sim.heap_s is the self
// time of samples whose innermost module frame is one of them.
var heapFuncs = map[string]bool{
	"sim.eventHeap.less": true, "sim.eventHeap.siftUp": true, "sim.eventHeap.siftDown": true,
	"sim.Engine.push": true, "sim.Engine.popMin": true, "sim.Engine.remove": true,
}

// folded is a profile reduced to per-layer self time and entry-point
// cumulative time, in profile nanoseconds.
type folded struct {
	total int64
	self  map[string]int64 // layer -> ns
	cum   map[string]int64 // entry-point metric -> ns
	heap  int64
}

func newFolded() folded {
	return folded{self: map[string]int64{}, cum: map[string]int64{}}
}

// shortName strips the module prefix and pointer-receiver syntax:
// "odpsim/internal/telemetry.(*Registry).add" -> "telemetry.Registry.add".
// ok is false for functions outside odpsim/internal.
func shortName(fn string) (string, bool) {
	if !strings.HasPrefix(fn, modulePrefix) {
		return "", false
	}
	s := strings.TrimPrefix(fn, modulePrefix)
	s = strings.ReplaceAll(s, "(*", "")
	s = strings.ReplaceAll(s, ")", "")
	return s, true
}

// layerOf maps a short name to its layer: the first path element of the
// package ("apps/sparkucx.Run" -> "apps").
func layerOf(short string) string {
	end := strings.IndexAny(short, "./")
	if end < 0 {
		end = len(short)
	}
	pkg := short[:end]
	for _, l := range layers {
		if l == pkg {
			return l
		}
	}
	return "other"
}

// add folds one sample. Its self time goes to the innermost frame in
// odpsim/internal, so runtime helpers (memeqbody, mallocgc, chanrecv)
// count against the layer that called them; a stack with no module
// frame (GC workers, the scheduler) goes to runtime.
func (f *folded) add(s stack) {
	f.total += s.ns
	leaf := "runtime"
	var leafFunc string
	for _, fr := range s.frames {
		if short, ok := shortName(fr); ok {
			leaf, leafFunc = layerOf(short), short
			break
		}
	}
	f.self[leaf] += s.ns
	if heapFuncs[leafFunc] {
		f.heap += s.ns
	}
	for _, ep := range entryPoints {
		if stackHas(s.frames, ep.funcs) {
			f.cum[ep.metric] += s.ns
		}
	}
}

func stackHas(frames, funcs []string) bool {
	for _, fr := range frames {
		short, ok := shortName(fr)
		if !ok {
			continue
		}
		for _, fn := range funcs {
			if short == fn || strings.HasPrefix(short, fn+".func") {
				return true
			}
		}
	}
	return false
}

// readProfile decodes a gzipped CPU profile into stacks.
func readProfile(r io.Reader) ([]stack, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("profile: %v", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %v", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples    []rawSample
		locLines   = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName   = map[uint64]int64{}    // function id -> string index
		strs       []string
		valueTypes []int64 // string index of each sample type
	)
	err = eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var typ int64
			if err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					typ = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			valueTypes = append(valueTypes, typ)
		case 2: // sample
			var s rawSample
			if err := eachField(b, func(n, w int, v uint64, p []byte) error {
				switch n {
				case 1:
					return appendUints(&s.locs, w, v, p)
				case 2:
					var u []uint64
					if err := appendUints(&u, w, v, p); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
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
			if err := eachField(b, func(n, _ int, v uint64, p []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(p, func(n, _ int, v uint64, _ []byte) error {
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
			locLines[id] = fns
		case 5: // function
			var id uint64
			var name int64
			if err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
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
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The CPU-time value is the one typed "cpu"; fall back to the last.
	vi := len(valueTypes) - 1
	for i, t := range valueTypes {
		if t >= 0 && int(t) < len(strs) && strs[t] == "cpu" {
			vi = i
		}
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		if vi < 0 || vi >= len(s.values) {
			return nil, fmt.Errorf("profile: sample has %d values, want index %d", len(s.values), vi)
		}
		st := stack{ns: s.values[vi]}
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				st.frames = append(st.frames, str(funcName[fn]))
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// eachField walks the top-level fields of a protobuf message. For
// varint fields v holds the value; for length-delimited fields b holds
// the payload.
func eachField(data []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		data = data[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint")
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return fmt.Errorf("profile: short fixed64")
			}
			v, data = binary.LittleEndian.Uint64(data), data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return fmt.Errorf("profile: bad length")
			}
			b, data = data[n:n+int(l)], data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return fmt.Errorf("profile: short fixed32")
			}
			v, data = uint64(binary.LittleEndian.Uint32(data)), data[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendUints reads a repeated integer field, packed or not.
func appendUints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	r := bytes.NewReader(b)
	for r.Len() > 0 {
		x, err := binary.ReadUvarint(r)
		if err != nil {
			return fmt.Errorf("profile: bad packed varint")
		}
		*dst = append(*dst, x)
	}
	return nil
}
