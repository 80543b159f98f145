package server

import (
	"bufio"
	"fmt"
	"strings"
	"testing"
	"time"

	"budgetwf/internal/pool"
)

// parseSeriesLabels reads the labels of one exposition-format sample
// line, `name{k="v",…} value`, undoing exactly the format's three
// escapes (\\, \" and \n) and rejecting any other.
func parseSeriesLabels(line string) (string, map[string]string, error) {
	open := strings.IndexByte(line, '{')
	if open < 0 {
		return strings.Fields(line)[0], nil, nil
	}
	name, rest := line[:open], line[open+1:]
	labels := map[string]string{}
	for {
		eq := strings.IndexByte(rest, '=')
		if eq < 0 || len(rest) < eq+2 || rest[eq+1] != '"' {
			return "", nil, fmt.Errorf("malformed label in %q", line)
		}
		key := rest[:eq]
		rest = rest[eq+2:]
		var val strings.Builder
		i := 0
		for ; i < len(rest) && rest[i] != '"'; i++ {
			if rest[i] != '\\' {
				val.WriteByte(rest[i])
				continue
			}
			if i++; i == len(rest) {
				return "", nil, fmt.Errorf("dangling escape in %q", line)
			}
			switch rest[i] {
			case '\\', '"':
				val.WriteByte(rest[i])
			case 'n':
				val.WriteByte('\n')
			default:
				return "", nil, fmt.Errorf("undefined escape \\%c in %q", rest[i], line)
			}
		}
		if i == len(rest) {
			return "", nil, fmt.Errorf("unterminated label value in %q", line)
		}
		labels[key] = val.String()
		rest = rest[i+1:]
		switch {
		case strings.HasPrefix(rest, ","):
			rest = rest[1:]
		case strings.HasPrefix(rest, "} "):
			return name, labels, nil
		default:
			return "", nil, fmt.Errorf("malformed label list in %q", line)
		}
	}
}

// TestPrometheusLabelValuesRoundTrip: user-supplied label values — a
// tenant id with a quote and a backslash, non-ASCII tenant ids and
// endpoint names — must read back byte-exact through an
// exposition-format parser: escaped once, never as Go \u escapes.
func TestPrometheusLabelValuesRoundTrip(t *testing.T) {
	m := newTestServer(t, Config{Workers: 1}).Metrics()
	tenants := []string{`a"b\c`, "tenant-ø-日本", "line\nbreak"}
	endpoint := "schedule/é✓"
	m.observe(endpoint, 200, time.Millisecond)
	m.setSharedPool(func() pool.Stats { return pool.Stats{} }, func() []pool.TenantView {
		views := make([]pool.TenantView, len(tenants))
		for i, id := range tenants {
			views[i] = pool.TenantView{ID: id}
		}
		return views
	})
	var buf strings.Builder
	m.WritePrometheus(&buf)

	seen := map[string]map[string]bool{} // label → values read back
	sc := bufio.NewScanner(strings.NewReader(buf.String()))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		_, labels, err := parseSeriesLabels(line)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range labels {
			if seen[k] == nil {
				seen[k] = map[string]bool{}
			}
			seen[k][v] = true
		}
	}
	for _, id := range tenants {
		if !seen["tenant"][id] {
			t.Errorf("tenant %q does not read back; tenant labels seen: %q", id, keys(seen["tenant"]))
		}
	}
	if !seen["endpoint"][endpoint] {
		t.Errorf("endpoint %q does not read back; endpoint labels seen: %q", endpoint, keys(seen["endpoint"]))
	}
}

func keys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
