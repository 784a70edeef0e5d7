// Package telemetry is the simulator's vendor-counter observability
// layer: the equivalent of the mlx5 hardware counters an operator reads
// with `rdma statistic` or from sysfs when packet capture is unavailable.
// The paper diagnosed its pitfalls from ibdump traces, but notes that in
// production that visibility rarely exists — counters are the practical
// interface to RDMA pathologies, which is why internal/core grows
// counter-only diagnosers on top of this package.
//
// The design is read-side: components keep counting into plain uint64
// fields exactly as before (a single increment on the hot path, no
// indirection), and the registry holds *pointers* to those fields plus
// callback-backed gauges. A Snapshot reads every registered metric at one
// virtual instant; snapshots subtract to deltas; a Sampler scrapes a Hub
// of registries periodically on the sim clock into a TimeSeries; export
// helpers render Prometheus text exposition and CSV. Because the struct
// field *is* the counter's storage, the pre-existing exported fields
// (rnic.RNIC.DammedDrops, odp.Engine.Faults, …) remain valid read-through
// accessors of the registry values.
//
// Everything is deterministic: snapshots are sorted by (name, labels),
// values are read in registration order, and the only clock is sim.Time —
// two runs of the same seeded scenario produce byte-identical exports.
package telemetry

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"odpsim/internal/sim"
)

// Kind distinguishes monotonically increasing counters from
// instantaneous gauges.
type Kind int

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
)

// String implements fmt.Stringer with the Prometheus type names.
func (k Kind) String() string {
	if k == KindGauge {
		return "gauge"
	}
	return "counter"
}

// Labels attach dimensions to a metric, e.g. {"device": "node0",
// "qpn": "3"}. They render sorted by key, so map order never leaks into
// output. The registry renders labels at registration time, so callers
// may reuse (and mutate) one Labels map across registrations — rnic's
// per-status counters register through a single map this way.
type Labels map[string]string

// labelPair is one rendered label dimension.
type labelPair struct{ k, v string }

// sortPairs orders pairs by key with an insertion sort: label sets are a
// handful of entries, and unlike sort.Slice this allocates nothing.
func sortPairs(pairs []labelPair) {
	for i := 1; i < len(pairs); i++ {
		for j := i; j > 0 && pairs[j].k < pairs[j-1].k; j-- {
			pairs[j], pairs[j-1] = pairs[j-1], pairs[j]
		}
	}
}

// internLabels is a process-wide table of rendered label strings. Sweeps
// rebuild every registry per trial with the same device names, so after
// the first trial every render is a cache hit and allocates nothing. The
// mutex (not sync.Map) keeps lookups allocation-free; parallel sweep
// workers contend only for the duration of one map access.
var (
	internMu     sync.Mutex
	internLabels = make(map[string]string)
)

// intern returns the canonical string for rendered, allocating only the
// first time a label set is seen process-wide. The map lookup keyed by
// string(rendered) does not allocate (compiler optimization).
func intern(rendered []byte) string {
	internMu.Lock()
	s, ok := internLabels[string(rendered)]
	if !ok {
		s = string(rendered)
		internLabels[s] = s
	}
	internMu.Unlock()
	return s
}

// metric is one registered counter or gauge: a counter has non-nil
// counter storage, a gauge a non-nil read callback.
type metric struct {
	name    string
	help    string
	labels  string // canonical rendered form
	counter *uint64
	gauge   func() float64
	// prevSame is the index of the previous metric in the same registry
	// with the same labels, or -1: the chain the duplicate check walks.
	prevSame int32
}

func (m *metric) kind() Kind {
	if m.counter != nil {
		return KindCounter
	}
	return KindGauge
}

// Registry holds the metrics of one component (a device, the fabric).
// Registration happens at construction time; reads happen at snapshot
// time. The zero value is not usable; create with NewRegistry.
//
// Registration runs per simulated device per trial, so it is built to
// stay off the allocator: metrics are stored by value, label rendering
// reuses scratch buffers and caches the last rendered label set
// (registrations arrive in runs sharing one Labels map), and duplicate
// detection walks only the metrics sharing the new one's labels. A full
// (name, labels) set would cost about one map entry per metric; the
// label index costs one per label set, i.e. per QP rather than per
// per-QP counter.
type Registry struct {
	common    []labelPair // sorted by key
	commonStr string      // rendered form of common alone
	metrics   []metric
	// byLabels maps a rendered label set to the index of the newest
	// metric carrying it; older ones follow metric.prevSame.
	byLabels map[string]int32

	// Render cache and scratch. lastSpecific/lastRendered memoize the
	// most recent non-empty specific label set; pairScratch and
	// bufScratch are reused across renders.
	lastSpecific []labelPair
	lastRendered string
	haveLast     bool
	pairScratch  []labelPair
	bufScratch   []byte
}

// NewRegistry creates a registry whose metrics all carry the common
// labels (typically {"device": name}).
func NewRegistry(common Labels) *Registry {
	r := &Registry{metrics: make([]metric, 0, 32), byLabels: make(map[string]int32)}
	if len(common) > 0 {
		r.common = make([]labelPair, 0, len(common))
		for k, v := range common {
			r.common = append(r.common, labelPair{k, v})
		}
		sortPairs(r.common)
		r.commonStr = intern(r.renderPairs(r.common))
	}
	return r
}

// regPoolKey is the engine Aux key registry storage lives under.
const regPoolKey = "telemetry.registries"

// regPool recycles registries (and hubs) across engine generations:
// sweeps rebuild every device per trial under the same names, so each
// trial's NewRegistryOn calls get back last trial's registry with its
// metric table, label scratch and render cache intact. Same-name
// registries within one generation get distinct instances, handed out in
// construction order (which is deterministic).
type regPool struct {
	gen    uint64
	byName map[string]*regList
	hubs   []*Hub
	hubUse int
}

type regList struct {
	all  []*Registry
	next int
}

func poolFor(eng *sim.Engine) *regPool {
	p, _ := eng.Aux(regPoolKey).(*regPool)
	if p == nil {
		p = &regPool{byName: make(map[string]*regList)}
		eng.SetAux(regPoolKey, p)
	}
	if gen := eng.Generation() + 1; p.gen != gen {
		p.gen = gen
		for _, l := range p.byName {
			l.next = 0
		}
		p.hubUse = 0
	}
	return p
}

// NewRegistryOn is NewRegistry with engine-generation recycling: name
// must identify the component uniquely enough that its common labels are
// the same every trial (the device name serves). After an engine Reset,
// the registry registered under name last run is returned emptied of
// metrics but keeping its storage.
func NewRegistryOn(eng *sim.Engine, name string, common Labels) *Registry {
	p := poolFor(eng)
	l := p.byName[name]
	if l == nil {
		l = &regList{}
		p.byName[name] = l
	}
	if l.next < len(l.all) {
		r := l.all[l.next]
		l.next++
		r.metrics = r.metrics[:0]
		clear(r.byLabels)
		return r
	}
	r := NewRegistry(common)
	l.all = append(l.all, r)
	l.next = len(l.all)
	return r
}

// renderPairs renders sorted pairs into the reusable byte scratch in the
// canonical `{k="v",…}` form; the result is valid until the next render.
func (r *Registry) renderPairs(pairs []labelPair) []byte {
	if len(pairs) == 0 {
		return nil
	}
	if r.bufScratch == nil {
		r.bufScratch = make([]byte, 0, 96)
	}
	buf := append(r.bufScratch[:0], '{')
	for i, p := range pairs {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, p.k...)
		buf = append(buf, '=')
		buf = strconv.AppendQuote(buf, p.v)
	}
	buf = append(buf, '}')
	r.bufScratch = buf
	return buf
}

// render merges the common labels with specific (specific wins) into the
// canonical sorted `{k="v",…}` form, or "" when there are none.
func (r *Registry) render(specific Labels) string {
	if len(specific) == 0 {
		return r.commonStr
	}
	if r.haveLast && len(specific) == len(r.lastSpecific) {
		same := true
		for _, p := range r.lastSpecific {
			// comma-ok: a missing key reads as "", which must not
			// match a cached empty value.
			if v, ok := specific[p.k]; !ok || v != p.v {
				same = false
				break
			}
		}
		if same {
			return r.lastRendered
		}
	}
	if r.pairScratch == nil {
		r.pairScratch = make([]labelPair, 0, 8)
		r.lastSpecific = make([]labelPair, 0, 8)
	}
	pairs := r.pairScratch[:0]
	for _, p := range r.common {
		if _, overridden := specific[p.k]; !overridden {
			pairs = append(pairs, p)
		}
	}
	for k, v := range specific {
		pairs = append(pairs, labelPair{k, v})
	}
	sortPairs(pairs)
	r.pairScratch = pairs
	rendered := intern(r.renderPairs(pairs))
	r.lastSpecific = r.lastSpecific[:0]
	for k, v := range specific {
		r.lastSpecific = append(r.lastSpecific, labelPair{k, v})
	}
	r.lastRendered = rendered
	r.haveLast = true
	return rendered
}

func (r *Registry) add(m metric, specific Labels) {
	m.labels = r.render(specific)
	m.prevSame = -1
	if i, ok := r.byLabels[m.labels]; ok {
		m.prevSame = i
	}
	for i := m.prevSame; i >= 0; i = r.metrics[i].prevSame {
		if r.metrics[i].name == m.name {
			panicDuplicate(m.name, m.labels)
		}
	}
	r.byLabels[m.labels] = int32(len(r.metrics))
	r.metrics = append(r.metrics, m)
}

func panicDuplicate(name, labels string) {
	panic(fmt.Sprintf("telemetry: duplicate metric %s%s", name, labels))
}

// Counter registers a pointer-backed counter: v is the live storage, so
// the owning component keeps incrementing its field directly and the
// registry observes it for free.
func (r *Registry) Counter(name, help string, labels Labels, v *uint64) {
	if v == nil {
		panic("telemetry: Counter requires non-nil storage")
	}
	r.add(metric{name: name, help: help, counter: v}, labels)
}

// Gauge registers a callback-backed gauge, read at snapshot time. read
// must only touch simulation state (it runs on the event loop).
func (r *Registry) Gauge(name, help string, labels Labels, read func() float64) {
	if read == nil {
		panic("telemetry: Gauge requires a read callback")
	}
	r.add(metric{name: name, help: help, gauge: read}, labels)
}

// Len returns the number of registered metrics.
func (r *Registry) Len() int { return len(r.metrics) }

// Sample is one metric's value at one instant.
type Sample struct {
	Name   string
	Labels string // canonical `{k="v",…}` form, "" when unlabelled
	Help   string
	Kind   Kind
	Value  float64
}

// Snapshot is a consistent reading of every metric at one virtual
// instant, sorted by (Name, Labels).
type Snapshot struct {
	At      sim.Time
	Samples []Sample
}

// snapshotInto appends this registry's current values.
func (r *Registry) snapshotInto(out []Sample) []Sample {
	for i := range r.metrics {
		m := &r.metrics[i]
		s := Sample{Name: m.name, Labels: m.labels, Help: m.help, Kind: m.kind()}
		if m.counter != nil {
			s.Value = float64(*m.counter)
		} else {
			s.Value = m.gauge()
		}
		out = append(out, s)
	}
	return out
}

// Snapshot reads the registry at virtual time at.
func (r *Registry) Snapshot(at sim.Time) Snapshot {
	return finishSnapshot(at, r.snapshotInto(make([]Sample, 0, len(r.metrics))))
}

// compareSamples orders samples by (Name, Labels).
func compareSamples(a, b Sample) int {
	if c := strings.Compare(a.Name, b.Name); c != 0 {
		return c
	}
	return strings.Compare(a.Labels, b.Labels)
}

// finishSnapshot sorts samples by (Name, Labels) and panics on a pair
// that sorts equal: Registry.add rejects duplicates within one registry,
// and this catches two registries of one Hub emitting the same series,
// which Get would resolve arbitrarily and Delta would merge. With keys
// unique, any correct sort yields the same order, so the unstable
// (allocation-free) pdqsort is deterministic here.
func finishSnapshot(at sim.Time, samples []Sample) Snapshot {
	slices.SortFunc(samples, compareSamples)
	for i := 1; i < len(samples); i++ {
		if compareSamples(samples[i-1], samples[i]) == 0 {
			panicDuplicate(samples[i].Name, samples[i].Labels)
		}
	}
	return Snapshot{At: at, Samples: samples}
}

// Get returns the value of the sample with the given name and rendered
// labels, and whether it exists.
func (s Snapshot) Get(name, labels string) (float64, bool) {
	i := sort.Search(len(s.Samples), func(i int) bool {
		if s.Samples[i].Name != name {
			return s.Samples[i].Name > name
		}
		return s.Samples[i].Labels >= labels
	})
	if i < len(s.Samples) && s.Samples[i].Name == name && s.Samples[i].Labels == labels {
		return s.Samples[i].Value, true
	}
	return 0, false
}

// Total sums every sample with the given name across all label sets —
// e.g. per-QP local_ack_timeout_err over the whole cluster.
func (s Snapshot) Total(name string) float64 {
	var sum float64
	for _, smp := range s.Samples {
		if smp.Name == name {
			sum += smp.Value
		}
	}
	return sum
}

// Delta returns cur - prev per metric: counters become differences,
// gauges keep their current value. Metrics absent from prev (e.g. QPs
// created mid-run) count from zero.
func Delta(prev, cur Snapshot) Snapshot {
	type key struct{ name, labels string }
	old := make(map[key]float64, len(prev.Samples))
	for _, s := range prev.Samples {
		old[key{s.Name, s.Labels}] = s.Value
	}
	out := Snapshot{At: cur.At, Samples: make([]Sample, len(cur.Samples))}
	copy(out.Samples, cur.Samples)
	for i := range out.Samples {
		if out.Samples[i].Kind == KindCounter {
			out.Samples[i].Value -= old[key{out.Samples[i].Name, out.Samples[i].Labels}]
		}
	}
	return out
}

// Hub aggregates the registries of a whole simulation (fabric + every
// device) so one scrape sees the cluster the way a monitoring agent sees
// a host's /sys/class/infiniband tree.
type Hub struct {
	regs []*Registry
}

// NewHub creates a hub over the given registries.
func NewHub(regs ...*Registry) *Hub { return &Hub{regs: regs} }

// NewHubOn creates an empty hub recycled through the engine's registry
// pool, keeping its registry list's backing array across trials.
func NewHubOn(eng *sim.Engine) *Hub {
	p := poolFor(eng)
	if p.hubUse < len(p.hubs) {
		h := p.hubs[p.hubUse]
		p.hubUse++
		h.regs = h.regs[:0]
		return h
	}
	h := &Hub{}
	p.hubs = append(p.hubs, h)
	p.hubUse = len(p.hubs)
	return h
}

// Add attaches another registry.
func (h *Hub) Add(r *Registry) { h.regs = append(h.regs, r) }

// Snapshot reads every registry at virtual time at.
func (h *Hub) Snapshot(at sim.Time) Snapshot {
	n := 0
	for _, r := range h.regs {
		n += r.Len()
	}
	samples := make([]Sample, 0, n)
	for _, r := range h.regs {
		samples = r.snapshotInto(samples)
	}
	return finishSnapshot(at, samples)
}
