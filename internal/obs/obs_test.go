package obs

import (
	"net/http/httptest"
	"strings"
	"testing"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("zeta_total", "a counter").Add(3)
	r.Gauge("alpha_depth", "a gauge").Set(2.5)
	r.Counter("mid_total", "labelled", "backend", "1").Inc()
	r.Counter("mid_total", "labelled", "backend", "0").Add(2)
	r.GaugeFunc("fn_value", "computed at scrape", func() float64 { return 7 })
	r.CounterFunc("fn_total", "computed counter", func() int64 { return 9 })

	got := render(t, r)
	want := strings.Join([]string{
		"# HELP alpha_depth a gauge",
		"# TYPE alpha_depth gauge",
		"alpha_depth 2.5",
		"# HELP fn_total computed counter",
		"# TYPE fn_total counter",
		"fn_total 9",
		"# HELP fn_value computed at scrape",
		"# TYPE fn_value gauge",
		"fn_value 7",
		"# HELP mid_total labelled",
		"# TYPE mid_total counter",
		`mid_total{backend="0"} 2`,
		`mid_total{backend="1"} 1`,
		"# HELP zeta_total a counter",
		"# TYPE zeta_total counter",
		"zeta_total 3",
		"",
	}, "\n")
	if got != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}

	// Determinism: two renders of unchanged state are byte-identical.
	if again := render(t, r); again != got {
		t.Errorf("renders differ:\n%s\nvs\n%s", got, again)
	}
}

func TestRegistryLabelHandling(t *testing.T) {
	r := NewRegistry()
	// Same series regardless of label order in the call.
	a := r.Counter("x_total", "h", "b", "2", "a", "1")
	b := r.Counter("x_total", "h", "a", "1", "b", "2")
	if a != b {
		t.Error("label order created distinct series")
	}
	a.Inc()
	got := render(t, r)
	if !strings.Contains(got, `x_total{a="1",b="2"} 1`) {
		t.Errorf("labels not sorted by key:\n%s", got)
	}

	// Escaping.
	r.Counter("esc_total", "h", "k", "a\"b\\c\nd").Inc()
	got = render(t, r)
	if !strings.Contains(got, `esc_total{k="a\"b\\c\nd"} 1`) {
		t.Errorf("label escaping wrong:\n%s", got)
	}
}

// TestHelpEscaping pins the Prometheus-text escaping rules for HELP text:
// backslashes and newlines must be escaped (a raw newline would split the
// comment line and corrupt the exposition), while double quotes are legal
// and stay literal.
func TestHelpEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("hostile_total", "path C:\\tmp\nsecond \"line\"").Inc()
	got := render(t, r)
	want := `# HELP hostile_total path C:\\tmp\nsecond "line"` + "\n"
	if !strings.Contains(got, want) {
		t.Errorf("HELP escaping wrong:\ngot:\n%s\nwant line:\n%s", got, want)
	}
	// The exposition must not contain a raw mid-comment newline: every
	// line starts with a comment marker or the metric name.
	for _, line := range strings.Split(strings.TrimSuffix(got, "\n"), "\n") {
		if !strings.HasPrefix(line, "# ") && !strings.HasPrefix(line, "hostile_total") {
			t.Errorf("stray exposition line %q", line)
		}
	}
}

func TestRegistryMisusePanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func(r *Registry)
	}{
		{"type change", func(r *Registry) {
			r.Counter("m", "h")
			r.Gauge("m", "h")
		}},
		{"help change", func(r *Registry) {
			r.Counter("m", "h1")
			r.Counter("m", "h2")
		}},
		{"odd labels", func(r *Registry) { r.Counter("m", "h", "k") }},
		{"dup label key", func(r *Registry) { r.Counter("m", "h", "k", "1", "k", "2") }},
		{"bucket mismatch", func(r *Registry) {
			r.Histogram("m", "h", []float64{1, 2})
			r.Histogram("m", "h", []float64{1, 3})
		}},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", c.name)
				}
			}()
			c.fn(NewRegistry())
		}()
	}
}

func TestRegistryHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("h_total", "h").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	buf := make([]byte, 1024)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "h_total 1") {
		t.Errorf("body %q", buf[:n])
	}
}

func TestRegisterGoRuntime(t *testing.T) {
	r := NewRegistry()
	RegisterGoRuntime(r)
	got := render(t, r)
	for _, want := range []string{
		"# TYPE go_goroutines gauge",
		"# TYPE go_heap_alloc_bytes gauge",
		"# TYPE go_total_alloc_bytes counter",
		"# TYPE go_gc_runs_total counter",
		"go_goroutines ",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q in:\n%s", want, got)
		}
	}
}

// TestRegistryConcurrentFirstLookup: goroutines racing to look up a series
// nobody has registered yet (two /metrics scrapes publishing a new
// per-policy gauge) must all get the same instrument. Run under -race: the
// instrument used to be created outside the registry lock.
func TestRegistryConcurrentFirstLookup(t *testing.T) {
	r := NewRegistry()
	for round := 0; round < 50; round++ {
		name := "p" + strings.Repeat("x", round)
		got := make(chan *Gauge, 4) // one send per goroutine
		for i := 0; i < cap(got); i++ {
			go func() {
				g := r.Gauge("test_gauge", "a gauge", "policy", name)
				g.Set(1)
				r.Counter("test_total", "a counter", "policy", name).Inc()
				got <- g
			}()
		}
		first := <-got
		for i := 1; i < cap(got); i++ {
			if g := <-got; g != first {
				t.Fatalf("round %d: lookups returned different gauges", round)
			}
		}
		if c := r.Counter("test_total", "a counter", "policy", name).Value(); c != 4 {
			t.Fatalf("round %d: counter = %d, want 4 (an increment landed on a lost instrument)", round, c)
		}
	}
}
