// Package obs is the dependency-free observability core behind tricommd's
// GET /metrics endpoint: atomic counters, gauges, and fixed-bucket
// histograms, optionally fanned out into single-label families, rendered
// in the Prometheus text exposition format.
//
// The design constraint is the repo's determinism contract: metrics are
// observed effects, never inputs. Nothing in this package feeds back into
// protocol execution, and the increment path is engineered to be invisible
// on the trial hot path — lock-free (one atomic CAS per Add, one atomic
// load per labeled lookup) and zero allocations per operation once a
// label's child exists (pinned by TestZeroAllocIncrements and the
// ReportAllocs benchmarks).
//
// # Model
//
// A Registry holds metric families. A family has a name, a help string, a
// kind (counter | gauge | histogram), and at most one label key. Labeled
// families (CounterVec) materialize one child per label value on
// first use; the children map is copy-on-write behind an atomic pointer,
// so the lookup path takes no lock. Unlabeled families are a single
// pre-materialized child. Values are float64 bits in a uint64 atomic —
// exact for integer counts up to 2⁵³, which comfortably covers bit and
// byte totals, while letting durations accumulate fractional seconds.
//
// Registration is idempotent: re-registering an identical family returns
// the existing one (so tests and long-lived packages can share the Default
// registry), while a conflicting re-registration (different kind, label,
// or buckets) panics at init time.
//
// # Cardinality
//
// One label per family is a feature, not a shortcut: every label value in
// this codebase is drawn from a closed, code-defined vocabulary (protocol
// phase names, job states, fault types, communication models), so the
// series count is statically bounded. Nothing user-controlled is ever used
// as a label value.
package obs

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Kind is a metric family's type as exposed in the # TYPE comment.
type Kind string

// Metric kinds.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// value is a float64 stored as atomic bits: lock-free Add via CAS, exact
// for integers below 2⁵³.
type value struct{ bits atomic.Uint64 }

func (v *value) Add(d float64) {
	for {
		old := v.bits.Load()
		if v.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

func (v *value) Set(f float64) { v.bits.Store(math.Float64bits(f)) }
func (v *value) Load() float64 { return math.Float64frombits(v.bits.Load()) }

// metric is one child of a family: the sample (or histogram) of a single
// label value.
type metric struct {
	label string
	val   value // counter/gauge value; histogram sum

	hcounts []atomic.Int64 // per-bucket counts (+Inf last); nil for scalars
}

// Family is one registered metric family. Its exported surface is the
// typed handles (Counter, Gauge, Histogram, …); tests and the renderer use
// the family directly.
type Family struct {
	name    string
	help    string
	kind    Kind
	label   string    // label key; "" for unlabeled families
	buckets []float64 // histogram upper bounds, strictly increasing
	readFn  func() float64

	mu       sync.Mutex // guards child creation (copy-on-write)
	children atomic.Pointer[map[string]*metric]
}

// get returns the child for a label value, creating it on first use. The
// hit path is one atomic pointer load and one map read — no locks, no
// allocations.
func (f *Family) get(label string) *metric {
	if m := (*f.children.Load())[label]; m != nil {
		return m
	}
	return f.create(label)
}

func (f *Family) create(label string) *metric {
	f.mu.Lock()
	defer f.mu.Unlock()
	old := *f.children.Load()
	if m := old[label]; m != nil {
		return m
	}
	m := &metric{label: label}
	if f.kind == KindHistogram {
		m.hcounts = make([]atomic.Int64, len(f.buckets)+1)
	}
	next := make(map[string]*metric, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[label] = m
	f.children.Store(&next)
	return m
}

// Registry is a set of metric families. The zero value is unusable; use
// NewRegistry or the package-level Default.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*Family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*Family)}
}

// Default is the process-wide registry: package-level metric constructors
// register here, and tricommd's /metrics renders it.
var Default = NewRegistry()

// validName reports whether s is a legal metric or label name:
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// family registers (or idempotently returns) a family. Conflicting
// re-registration panics: families are created in package init blocks, so
// a conflict is a programming error, never a runtime condition.
func (r *Registry) family(name, help string, kind Kind, label string, buckets []float64) *Family {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	if label != "" && !validName(label) {
		panic(fmt.Sprintf("obs: invalid label name %q for %s", label, name))
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: %s buckets not strictly increasing at %d", name, i))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.kind != kind || f.label != label || len(f.buckets) != len(buckets) {
			panic(fmt.Sprintf("obs: conflicting re-registration of %s", name))
		}
		return f
	}
	f := &Family{name: name, help: help, kind: kind, label: label, buckets: buckets}
	empty := make(map[string]*metric)
	f.children.Store(&empty)
	if label == "" && kind != KindHistogram {
		f.get("") // pre-materialize the singleton so first Inc allocates nothing
	}
	r.fams[name] = f
	return f
}

// snapshot returns the families sorted by name (the exposition order).
func (r *Registry) snapshot() []*Family {
	r.mu.Lock()
	fams := make([]*Family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	for i := 1; i < len(fams); i++ { // insertion sort; the set is small
		for j := i; j > 0 && fams[j].name < fams[j-1].name; j-- {
			fams[j], fams[j-1] = fams[j-1], fams[j]
		}
	}
	return fams
}

// Counter is a monotonically increasing value.
type Counter struct{ m *metric }

// Inc adds 1.
func (c Counter) Inc() { c.m.val.Add(1) }

// Add adds d (which must be non-negative to keep the counter monotone;
// this is not checked on the hot path).
func (c Counter) Add(d float64) { c.m.val.Add(d) }

// Value reads the current total.
func (c Counter) Value() float64 { return c.m.val.Load() }

// CounterVec is a counter family with one label.
type CounterVec struct{ f *Family }

// With returns the counter for a label value, materializing it on first
// use. Lookups of existing children are lock- and allocation-free.
func (v CounterVec) With(label string) Counter { return Counter{v.f.get(label)} }

// Gauge is a value that can go up and down.
type Gauge struct{ m *metric }

// Set replaces the value.
func (g Gauge) Set(f float64) { g.m.val.Set(f) }

// Histogram is a fixed-bucket histogram: cumulative bucket counts, a sum,
// and a count, rendered Prometheus-style with le labels.
type Histogram struct {
	f *Family
	m *metric
}

// Observe records one sample: a linear scan over the (small, fixed) bucket
// bounds, two atomic adds. Zero allocations.
func (h Histogram) Observe(v float64) {
	b := h.f.buckets
	i := 0
	for i < len(b) && v > b[i] {
		i++
	}
	h.m.hcounts[i].Add(1)
	h.m.val.Add(v) // the _sum series
}

// NewCounter registers (or returns) an unlabeled counter.
func (r *Registry) NewCounter(name, help string) Counter {
	return Counter{r.family(name, help, KindCounter, "", nil).get("")}
}

// NewCounterVec registers a counter family keyed by one label.
func (r *Registry) NewCounterVec(name, help, label string) CounterVec {
	return CounterVec{r.family(name, help, KindCounter, label, nil)}
}

// NewGauge registers an unlabeled gauge.
func (r *Registry) NewGauge(name, help string) Gauge {
	return Gauge{r.family(name, help, KindGauge, "", nil).get("")}
}

// NewGaugeFunc registers a gauge whose value is read at scrape time —
// the hook for runtime stats (goroutines, heap) that have no event to
// increment on.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	r.family(name, help, KindGauge, "", nil).readFn = fn
}

// NewCounterFunc registers a counter read at scrape time (for monotone
// externally-maintained totals like GC cycles or process uptime).
func (r *Registry) NewCounterFunc(name, help string, fn func() float64) {
	r.family(name, help, KindCounter, "", nil).readFn = fn
}

// NewHistogram registers a histogram with the given upper bounds
// (strictly increasing; +Inf is implicit).
func (r *Registry) NewHistogram(name, help string, buckets []float64) Histogram {
	f := r.family(name, help, KindHistogram, "", buckets)
	return Histogram{f: f, m: f.get("")}
}

// Package-level constructors on the Default registry.

// NewCounter registers an unlabeled counter on Default.
func NewCounter(name, help string) Counter { return Default.NewCounter(name, help) }

// NewCounterVec registers a labeled counter family on Default.
func NewCounterVec(name, help, label string) CounterVec {
	return Default.NewCounterVec(name, help, label)
}

// NewGauge registers an unlabeled gauge on Default.
func NewGauge(name, help string) Gauge { return Default.NewGauge(name, help) }

// NewGaugeFunc registers a scrape-time gauge on Default.
func NewGaugeFunc(name, help string, fn func() float64) { Default.NewGaugeFunc(name, help, fn) }

// NewCounterFunc registers a scrape-time counter on Default.
func NewCounterFunc(name, help string, fn func() float64) { Default.NewCounterFunc(name, help, fn) }

// NewHistogram registers a histogram on Default.
func NewHistogram(name, help string, buckets []float64) Histogram {
	return Default.NewHistogram(name, help, buckets)
}

// DurationBuckets is the shared bucket layout for wall-clock histograms,
// in seconds: 1ms to 30s in a 1-2.5-5 progression. Sub-millisecond trials
// land in the first bucket; anything over 30s is +Inf.
func DurationBuckets() []float64 {
	return []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30}
}
