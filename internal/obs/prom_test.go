package obs

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// parseExposition is a strict reader of the text format used for the
// round-trip tests: it returns sample values by series name (label sets
// folded into the name) and the TYPE declarations, and errors on anything
// malformed — duplicate TYPE lines, samples before their TYPE, unparseable
// values, or non-monotonic histogram buckets.
func parseExposition(text string) (samples map[string]float64, types map[string]string, err error) {
	samples = make(map[string]float64)
	types = make(map[string]string)
	current := ""
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		fail := func(msg string) error { return fmt.Errorf("line %d (%q): %s", ln+1, line, msg) }
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(parts) != 2 || parts[0] == "" || parts[1] == "" {
				return nil, nil, fail("malformed HELP")
			}
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(parts) != 2 {
				return nil, nil, fail("malformed TYPE")
			}
			name, typ := parts[0], parts[1]
			if _, dup := types[name]; dup {
				return nil, nil, fail("duplicate TYPE for " + name)
			}
			switch typ {
			case "counter", "gauge", "histogram":
			default:
				return nil, nil, fail("unknown type " + typ)
			}
			types[name] = typ
			current = name
			continue
		}
		if strings.HasPrefix(line, "#") {
			return nil, nil, fail("unknown comment")
		}
		// Sample line: name[{labels}] value
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, nil, fail("no value")
		}
		series, valStr := line[:sp], line[sp+1:]
		val, perr := strconv.ParseFloat(valStr, 64)
		if perr != nil {
			return nil, nil, fail("bad value: " + perr.Error())
		}
		base := series
		if i := strings.IndexByte(base, '{'); i >= 0 {
			base = base[:i]
		}
		base = strings.TrimSuffix(strings.TrimSuffix(base, "_sum"), "_count")
		if types[base] == "histogram" {
			base += "?" // histogram child series belong to the parent TYPE
		}
		if current == "" || !strings.HasPrefix(series, strings.TrimSuffix(current, "?")) {
			return nil, nil, fail("sample outside its TYPE block")
		}
		if _, dup := samples[series]; dup {
			return nil, nil, fail("duplicate series " + series)
		}
		samples[series] = val
	}
	return samples, types, nil
}

func TestPrometheusRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("hostdb_queries_total").Add(42)
	r.Gauge("hostdb_checkpoint_lag_entries").Set(-3)
	h := r.Histogram("hostdb_query_seconds", 0.01, 0.1, 1)
	for _, v := range []float64{0.005, 0.05, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	text := r.RenderPrometheus()
	samples, types, err := parseExposition(text)
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, text)
	}
	if types["hostdb_queries_total"] != "counter" || types["hostdb_checkpoint_lag_entries"] != "gauge" || types["hostdb_query_seconds"] != "histogram" {
		t.Fatalf("types = %v", types)
	}
	if samples["hostdb_queries_total"] != 42 || samples["hostdb_checkpoint_lag_entries"] != -3 {
		t.Fatalf("scalar samples wrong: %v", samples)
	}
	// Histogram: cumulative buckets, monotone, +Inf == count.
	buckets := []struct {
		le   string
		want float64
	}{{"0.01", 1}, {"0.1", 3}, {"1", 4}, {"+Inf", 5}}
	for _, b := range buckets {
		series := fmt.Sprintf("hostdb_query_seconds_bucket{le=%q}", b.le)
		if got := samples[series]; got != b.want {
			t.Errorf("%s = %v, want %v", series, got, b.want)
		}
	}
	if samples["hostdb_query_seconds_count"] != 5 {
		t.Errorf("count = %v", samples["hostdb_query_seconds_count"])
	}
	if got, want := samples["hostdb_query_seconds_sum"], 0.005+0.05+0.05+0.5+5; got < want-1e-9 || got > want+1e-9 {
		t.Errorf("sum = %v, want %v", got, want)
	}
	// Standard names carry HELP text.
	if !strings.Contains(text, "# HELP hostdb_queries_total ") {
		t.Error("missing HELP for standard metric")
	}
	// Rendering twice is byte-identical (deterministic order).
	if again := r.RenderPrometheus(); again != text {
		t.Error("rendering is not deterministic")
	}
}

func TestPrometheusNoDuplicateNames(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total").Inc()
	r.Gauge("b").Set(1)
	r.Histogram("c").Observe(0.2)
	r.Counter("a_total").Inc() // same metric again must not re-render
	if _, _, err := parseExposition(r.RenderPrometheus()); err != nil {
		t.Fatal(err)
	}
}

func TestSanitizeMetricName(t *testing.T) {
	cases := map[string]string{
		"good_name":   "good_name",
		"ns:sub":      "ns:sub",
		"bad name-1":  "bad_name_1",
		"0starts_bad": "_starts_bad",
		"":            "_",
	}
	for in, want := range cases {
		if got := sanitizeMetricName(in); got != want {
			t.Errorf("sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestTelemetryServer(t *testing.T) {
	r := NewRegistry()
	r.Counter("hostdb_queries_total").Add(7)
	srv, err := ServeTelemetryWith("127.0.0.1:0", TelemetryConfig{Registry: r})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Concurrent scrapes while writers bump metrics: must stay valid.
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				r.Counter("hostdb_queries_total").Inc()
				r.Histogram("hostdb_query_seconds").Observe(0.001)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				resp, err := http.Get(srv.URL())
				if err != nil {
					errCh <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errCh <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errCh <- fmt.Errorf("status %d", resp.StatusCode)
					return
				}
				if ct := resp.Header.Get("Content-Type"); ct != PrometheusContentType {
					errCh <- fmt.Errorf("content type %q", ct)
					return
				}
				if _, _, err := parseExposition(string(body)); err != nil {
					errCh <- fmt.Errorf("mid-storm exposition invalid: %w", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	resp, err := http.Get("http://" + srv.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}
