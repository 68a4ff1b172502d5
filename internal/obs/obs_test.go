package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// Value reads the gauge's current value.
func (g Gauge) Value() float64 { return g.m.val.Load() }

// Count reads the histogram's total number of observations.
func (h Histogram) Count() int64 {
	var n int64
	for i := range h.m.hcounts {
		n += h.m.hcounts[i].Load()
	}
	return n
}

// Sum reads the sum of all values the histogram observed.
func (h Histogram) Sum() float64 { return h.m.val.Load() }

// TestExpositionGolden pins the exact rendered bytes of a registry
// exercising every metric kind. The format is a wire contract (scrapers
// parse it); any change here must be deliberate.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("app_requests_total", "Requests served.")
	c.Add(41)
	c.Inc()
	v := r.NewCounterVec("app_faults_total", "Faults by type.", "type")
	v.With("drop").Add(3)
	v.With("corrupt").Inc()
	g := r.NewGauge("app_queue_depth", "Jobs queued.")
	g.Set(5)
	r.NewGaugeFunc("app_temperature", "A scrape-time value.", func() float64 { return 36.6 })
	h := r.NewHistogram("app_latency_seconds", "Latency with \"quotes\" and \\ backslash.", []float64{0.1, 1, 10})
	for _, s := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(s)
	}

	want := strings.Join([]string{
		`# HELP app_faults_total Faults by type.`,
		`# TYPE app_faults_total counter`,
		`app_faults_total{type="corrupt"} 1`,
		`app_faults_total{type="drop"} 3`,
		`# HELP app_latency_seconds Latency with "quotes" and \\ backslash.`,
		`# TYPE app_latency_seconds histogram`,
		`app_latency_seconds_bucket{le="0.1"} 1`,
		`app_latency_seconds_bucket{le="1"} 3`,
		`app_latency_seconds_bucket{le="10"} 4`,
		`app_latency_seconds_bucket{le="+Inf"} 5`,
		`app_latency_seconds_sum 56.05`,
		`app_latency_seconds_count 5`,
		`# HELP app_queue_depth Jobs queued.`,
		`# TYPE app_queue_depth gauge`,
		`app_queue_depth 5`,
		`# HELP app_requests_total Requests served.`,
		`# TYPE app_requests_total counter`,
		`app_requests_total 42`,
		`# HELP app_temperature A scrape-time value.`,
		`# TYPE app_temperature gauge`,
		`app_temperature 36.6`,
		``,
	}, "\n")

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	// The renderer's output must satisfy the independent checker.
	e, err := CheckExposition(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("CheckExposition rejects rendered output: %v", err)
	}
	if e.Families() != 5 {
		t.Errorf("families = %d, want 5", e.Families())
	}
	if got, _ := e.Value(`app_faults_total{type="drop"}`); got != 3 {
		t.Errorf("drop faults = %v, want 3", got)
	}
	if got := e.Total("app_faults_total"); got != 4 {
		t.Errorf("faults total = %v, want 4", got)
	}
	if got := e.Total("app_latency_seconds"); got != 5 {
		t.Errorf("latency count = %v, want 5", got)
	}
}

// TestIdempotentRegistration pins that re-registering an identical family
// returns the same underlying metric, and that a conflicting
// re-registration panics.
func TestIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.NewCounter("x_total", "x")
	b := r.NewCounter("x_total", "x")
	a.Inc()
	b.Inc()
	if a.Value() != 2 || b.Value() != 2 {
		t.Errorf("re-registered counter not shared: %v, %v", a.Value(), b.Value())
	}
	defer func() {
		if recover() == nil {
			t.Error("conflicting re-registration did not panic")
		}
	}()
	r.NewGauge("x_total", "x")
}

func TestInvalidNamePanics(t *testing.T) {
	for _, name := range []string{"", "9lead", "has space", "dash-ed"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q did not panic", name)
				}
			}()
			NewRegistry().NewCounter(name, "")
		}()
	}
}

// TestConcurrentIncrements hammers every metric kind from many goroutines
// while a renderer scrapes concurrently; exact totals must survive. Run
// with -race in CI, this is the lock-freedom soundness suite.
func TestConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("c_total", "")
	vec := r.NewCounterVec("v_total", "", "who")
	g := r.NewGauge("g", "")
	h := r.NewHistogram("h_seconds", "", []float64{1, 10})

	const goroutines = 16
	const perG = 5000
	labels := []string{"a", "b", "c", "d"}
	var workers sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		workers.Add(1)
		go func(i int) {
			defer workers.Done()
			for j := 0; j < perG; j++ {
				c.Inc()
				vec.With(labels[(i+j)%len(labels)]).Inc()
				g.Set(1)
				h.Observe(float64(j % 20))
			}
		}(i)
	}
	stop := make(chan struct{})
	scraperDone := make(chan struct{})
	go func() { // concurrent scraper: every mid-flight snapshot must be valid
		defer close(scraperDone)
		for {
			select {
			case <-stop:
				return
			default:
				var sb strings.Builder
				if err := r.WritePrometheus(&sb); err != nil {
					t.Error(err)
					return
				}
				if _, err := CheckExposition(strings.NewReader(sb.String())); err != nil {
					t.Errorf("mid-flight scrape invalid: %v", err)
					return
				}
			}
		}
	}()
	workers.Wait()
	close(stop)
	<-scraperDone

	want := float64(goroutines * perG)
	if c.Value() != want {
		t.Errorf("counter = %v, want %v", c.Value(), want)
	}
	if g.Value() != 1 {
		t.Errorf("gauge = %v, want 1", g.Value())
	}
	var vecTotal float64
	for _, l := range labels {
		vecTotal += vec.With(l).Value()
	}
	if vecTotal != want {
		t.Errorf("vec total = %v, want %v", vecTotal, want)
	}
	if h.Count() != int64(want) {
		t.Errorf("histogram count = %v, want %v", h.Count(), want)
	}
}

// TestHistogramBuckets pins bucket edge semantics: a sample equal to an
// upper bound lands in that bucket (le is inclusive).
func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("h", "", []float64{1, 2})
	h.Observe(1) // le="1"
	h.Observe(2) // le="2"
	h.Observe(3) // +Inf
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	e, err := CheckExposition(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	for id, want := range map[string]float64{
		`h_bucket{le="1"}`:    1,
		`h_bucket{le="2"}`:    2,
		`h_bucket{le="+Inf"}`: 3,
	} {
		if got, ok := e.Value(id); !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", id, got, ok, want)
		}
	}
	if h.Sum() != 6 {
		t.Errorf("sum = %v, want 6", h.Sum())
	}
}

// TestZeroAllocIncrements asserts the hot-path contract directly: counter
// Inc/Add, labeled With+Inc on existing children, gauge Set, and histogram
// Observe allocate nothing.
func TestZeroAllocIncrements(t *testing.T) {
	if raceEnabled {
		t.Skip("allocs/op not meaningful under -race")
	}
	r := NewRegistry()
	c := r.NewCounter("c_total", "")
	vec := r.NewCounterVec("v_total", "", "who")
	vec.With("hot") // materialize outside the measured loop
	g := r.NewGauge("g", "")
	h := r.NewHistogram("h_seconds", "", DurationBuckets())
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		vec.With("hot").Inc()
		g.Set(4)
		h.Observe(0.042)
	}); n != 0 {
		t.Errorf("increments allocate %v/op, want 0", n)
	}
}

func TestCheckExpositionRejects(t *testing.T) {
	cases := map[string]string{
		"no TYPE":             "orphan_total 3\n",
		"dup series":          "# TYPE a counter\na 1\na 2\n",
		"bad value":           "# TYPE a counter\na xyz\n",
		"bad type":            "# TYPE a widget\n",
		"hist no +Inf":        "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"hist no sum":         "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n",
		"hist count mismatch": "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 2\n",
		"hist not monotone":   "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
		"unterminated label":  "# TYPE a counter\na{x=\"y 1\n",
	}
	for name, in := range cases {
		if _, err := CheckExposition(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted invalid exposition %q", name, in)
		}
	}
}

func TestCheckExpositionParses(t *testing.T) {
	in := `# HELP a Total things.
# TYPE a counter
a{x="with \"quotes\", commas"} 12
a{x="plain"} 3.5
# TYPE g gauge
g +Inf
`
	e, err := CheckExposition(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Total("a"); got != 15.5 {
		t.Errorf("Total(a) = %v, want 15.5", got)
	}
	if v, ok := e.Value(`g`); !ok || !math.IsInf(v, 1) {
		t.Errorf("g = %v (present %v), want +Inf", v, ok)
	}
	if !e.Has("a") || e.Has("nope") {
		t.Error("Has misreports")
	}
}
