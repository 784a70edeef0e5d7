package telemetry

import (
	"sort"
	"strconv"
	"strings"
	"testing"

	"odpsim/internal/sim"
)

// Operations FuzzRegistry decodes from its input, two bytes each: an
// opcode and an argument.
const (
	frNewReg   byte = iota // NewRegistryOn under name "r<arg%2>"
	frLabel                // set or delete one key of the shared Labels map
	frCounter              // register a counter on one live registry
	frGauge                // register a gauge on one live registry
	frBump                 // change one registered metric's value
	frReset                // eng.Reset: a new generation recycles registries
	frSnapshot             // Hub snapshot over every live registry
	frOps
)

var (
	frNames  = []string{"a", "b", "c"}
	frKeys   = []string{"qpn", "status", "device"}
	frValues = []string{"", "0", "1"}
)

// modelMetric is one registration as the naive model sees it: counter
// is the registered storage, gauge the cell its read callback returns.
type modelMetric struct {
	name, labels string
	counter      *uint64
	gauge        *float64
}

func (m modelMetric) sample() Sample {
	s := Sample{Name: m.name, Labels: m.labels, Help: "help " + m.name, Kind: KindCounter}
	if m.counter != nil {
		s.Value = float64(*m.counter)
	} else {
		s.Kind, s.Value = KindGauge, *m.gauge
	}
	return s
}

// modelReg mirrors one live registry: its common labels and its metrics
// in registration order.
type modelReg struct {
	reg     *Registry
	common  Labels
	metrics []modelMetric
}

// naiveRender renders common merged with specific (specific wins) the
// long way round: copy into one map, sort the keys, quote the values.
func naiveRender(common, specific Labels) string {
	all := Labels{}
	for k, v := range common {
		all[k] = v
	}
	for k, v := range specific {
		all[k] = v
	}
	if len(all) == 0 {
		return ""
	}
	keys := make([]string, 0, len(all))
	for k := range all {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + strconv.Quote(all[k])
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// panicMessage runs f and returns its panic value, or nil.
func panicMessage(f func()) (msg any) {
	defer func() { msg = recover() }()
	f()
	return nil
}

// FuzzRegistry is a differential test of registration, the label index,
// registry recycling and Hub snapshots against a naive list model.
// Registrations reuse and mutate one Labels map, so the render cache is
// on the path. A registration must panic iff its registry already holds
// that (name, labels); a Hub snapshot must panic iff two live
// registries hold the same series, and otherwise equal the model's
// samples stably sorted by (name, labels), with Get and Total agreeing.
func FuzzRegistry(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		eng := sim.New(1)
		labels := Labels{}
		var live []*modelReg
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%frOps, ops[i+1]
			switch op {
			case frNewReg:
				name := "r" + strconv.Itoa(int(arg%2))
				common := Labels{"device": name}
				live = append(live, &modelReg{reg: NewRegistryOn(eng, name, common), common: common})
			case frLabel:
				k := frKeys[int(arg)%len(frKeys)]
				if v := int(arg) / len(frKeys) % (len(frValues) + 1); v == len(frValues) {
					delete(labels, k)
				} else {
					labels[k] = frValues[v]
				}
			case frCounter, frGauge:
				if len(live) == 0 {
					continue
				}
				mr := live[int(arg)%len(live)]
				m := modelMetric{
					name:   frNames[int(arg)/len(live)%len(frNames)],
					labels: naiveRender(mr.common, labels),
				}
				dup := false
				for _, old := range mr.metrics {
					dup = dup || (old.name == m.name && old.labels == m.labels)
				}
				var register func()
				if op == frCounter {
					m.counter = new(uint64)
					*m.counter = uint64(arg)
					register = func() { mr.reg.Counter(m.name, "help "+m.name, labels, m.counter) }
				} else {
					g := float64(arg) / 2
					m.gauge = &g
					register = func() { mr.reg.Gauge(m.name, "help "+m.name, labels, func() float64 { return g }) }
				}
				got := panicMessage(register)
				want := "telemetry: duplicate metric " + m.name + m.labels
				switch {
				case dup && got != want:
					t.Fatalf("op %d: duplicate %s%s: panic %v, want %q", i/2, m.name, m.labels, got, want)
				case !dup && got != nil:
					t.Fatalf("op %d: registering %s%s panicked: %v", i/2, m.name, m.labels, got)
				}
				if !dup {
					mr.metrics = append(mr.metrics, m)
				}
				if mr.reg.Len() != len(mr.metrics) {
					t.Fatalf("op %d: Len = %d, model holds %d", i/2, mr.reg.Len(), len(mr.metrics))
				}
			case frBump:
				var all []modelMetric
				for _, mr := range live {
					all = append(all, mr.metrics...)
				}
				if len(all) > 0 {
					if m := all[int(arg)%len(all)]; m.counter != nil {
						*m.counter += uint64(arg) + 1
					} else {
						*m.gauge -= float64(arg) + 1
					}
				}
			case frReset:
				eng.Reset(int64(arg))
				live = live[:0]
			case frSnapshot:
				h := NewHubOn(eng)
				for _, mr := range live {
					h.Add(mr.reg)
				}
				checkSnapshot(t, i/2, h, live, sim.Time(arg))
			}
		}
	})
}

func checkSnapshot(t *testing.T, op int, h *Hub, live []*modelReg, at sim.Time) {
	t.Helper()
	var want []Sample
	for _, mr := range live {
		for _, m := range mr.metrics {
			want = append(want, m.sample())
		}
	}
	sort.SliceStable(want, func(i, j int) bool {
		if want[i].Name != want[j].Name {
			return want[i].Name < want[j].Name
		}
		return want[i].Labels < want[j].Labels
	})
	dup := ""
	for i := 1; i < len(want) && dup == ""; i++ {
		if want[i].Name == want[i-1].Name && want[i].Labels == want[i-1].Labels {
			dup = "telemetry: duplicate metric " + want[i].Name + want[i].Labels
		}
	}
	var s Snapshot
	got := panicMessage(func() { s = h.Snapshot(at) })
	if dup != "" {
		if got != dup {
			t.Fatalf("op %d: snapshot with a cross-registry duplicate: panic %v, want %q", op, got, dup)
		}
		return
	}
	if got != nil {
		t.Fatalf("op %d: snapshot panicked: %v", op, got)
	}
	if s.At != at || len(s.Samples) != len(want) {
		t.Fatalf("op %d: snapshot at %v with %d samples, want at %v with %d", op, s.At, len(s.Samples), at, len(want))
	}
	totals := map[string]float64{}
	for i, w := range want {
		if s.Samples[i] != w {
			t.Fatalf("op %d: sample %d = %+v, want %+v", op, i, s.Samples[i], w)
		}
		if v, ok := s.Get(w.Name, w.Labels); !ok || v != w.Value {
			t.Fatalf("op %d: Get(%s, %s) = %v %v, want %v", op, w.Name, w.Labels, v, ok, w.Value)
		}
		totals[w.Name] += w.Value
	}
	for _, name := range append(frNames, "absent") {
		if got := s.Total(name); got != totals[name] {
			t.Fatalf("op %d: Total(%s) = %v, want %v", op, name, got, totals[name])
		}
		if _, ok := s.Get(name, `{absent="x"}`); ok {
			t.Fatalf("op %d: Get(%s, absent labels) found a sample", op, name)
		}
	}
}
