package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// series is every run's value of each metric of each workload in one
// result file: workload → metric → values in file order.
type series map[string]map[string][]float64

func loadResults(path string) (series, []runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	s := make(series)
	var recs []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for lineNo := 1; sc.Scan(); lineNo++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, nil, fmt.Errorf("%s line %d: %w", path, lineNo, err)
		}
		if r.Result == nil {
			return nil, nil, fmt.Errorf("%s line %d: no result", path, lineNo)
		}
		if s[r.Workload] == nil {
			s[r.Workload] = make(map[string][]float64)
		}
		for name, mv := range r.Result.Metrics {
			s[r.Workload][name] = append(s[r.Workload][name], mv.Value)
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	if len(recs) == 0 {
		return nil, nil, fmt.Errorf("%s holds no runs", path)
	}
	return s, recs, nil
}

// verdict judges one gated metric: b's median against a's, by the bound
// the benchmark fixed. A spread wider than the bound cannot resolve a
// difference that size, so it reads "unresolved" unless every run of b
// beats every run of a.
func verdict(d metricDef, a, b []float64) (worse float64, status string) {
	ma, mb := median(a), median(b)
	sign := 1.0
	if d.Better == "higher" {
		sign = -1
	}
	worse = sign * (mb - ma) / ma
	spread := iqrShare(a)
	if s := iqrShare(b); s > spread {
		spread = s
	}
	if spread > d.Bound {
		for _, x := range a {
			for _, y := range b {
				if sign*(y-x) >= 0 {
					return worse, "unresolved"
				}
			}
		}
		return worse, "ok"
	}
	if worse > d.Bound {
		return worse, "regressed"
	}
	return worse, "ok"
}

// compareFiles prints, per workload, each gated metric's two medians, the
// share by which b is worse, the bound and the verdict. Exit 1 only when
// something regressed.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, _, errA := loadResults(pathA)
	b, _, errB := loadResults(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	return printComparison(a, b, stdout)
}

func printComparison(a, b series, stdout io.Writer) int {
	code := 0
	for _, w := range workloads {
		fmt.Fprintf(stdout, "%s\n", w.Name)
		for _, d := range endToEnd {
			va, vb := a[w.Name][d.Name], b[w.Name][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(stdout, "  %-26s missing\n", d.Name)
				continue
			}
			worse, status := verdict(d, va, vb)
			if status == "regressed" {
				code = 1
			}
			fmt.Fprintf(stdout, "  %-26s %12.6g -> %12.6g %-9s worse by %+6.1f%% (bound %.0f%%, n=%d/%d)  %s\n",
				d.Name, median(va), median(vb), d.Unit, 100*worse, 100*d.Bound, len(va), len(vb), status)
		}
	}
	return code
}

// ledgerRow is one line of LEDGER.jsonl: where, on what, and what it read.
type ledgerRow struct {
	Commit     string                        `json:"commit"`
	Go         string                        `json:"go"`
	CPU        string                        `json:"cpu"`
	GOMAXPROCS int                           `json:"gomaxprocs"`
	Seeds      []int64                       `json:"seeds"`
	Seconds    float64                       `json:"seconds"`
	Medians    map[string]map[string]float64 `json:"medians"`
	Spreads    map[string]map[string]float64 `json:"spreads"` // quartile distance over median, gated metrics
}

func cpuModel() string {
	blob, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range strings.Split(string(blob), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
			}
		}
	}
	return runtime.GOARCH
}

// appendLedger summarises a result file into one row appended to ledger.
func appendLedger(results, ledger, commit string) error {
	s, recs, err := loadResults(results)
	if err != nil {
		return err
	}
	row := ledgerRow{
		Commit: commit, Go: runtime.Version(), CPU: cpuModel(), GOMAXPROCS: maxProcs,
		Seconds: recs[0].Seconds,
		Medians: make(map[string]map[string]float64),
		Spreads: make(map[string]map[string]float64),
	}
	seen := make(map[int64]bool)
	for _, r := range recs {
		if !seen[r.Seed] {
			seen[r.Seed] = true
			row.Seeds = append(row.Seeds, r.Seed)
		}
	}
	sort.Slice(row.Seeds, func(i, j int) bool { return row.Seeds[i] < row.Seeds[j] })
	gated := make(map[string]bool)
	for _, d := range endToEnd {
		gated[d.Name] = true
	}
	for w, metrics := range s {
		row.Medians[w] = make(map[string]float64)
		row.Spreads[w] = make(map[string]float64)
		for name, vals := range metrics {
			row.Medians[w][name] = median(vals)
			if gated[name] {
				row.Spreads[w][name] = iqrShare(vals)
			}
		}
	}
	return appendJSONLine(ledger, row)
}
