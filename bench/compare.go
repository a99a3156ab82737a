package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (the exclusive method), which is
// what the acceptance check of this benchmark is written in. It needs
// two values; one value is its own quartiles.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles as a share of the
// median.
func spread(v []float64) float64 {
	q1, q3 := quartiles(v)
	return (q3 - q1) / median(v)
}

// verdict compares the runs of one end-to-end metric on one workload,
// a being the base. A metric is worse when its median moved against
// its direction by more than the bound. Where either side's own runs
// spread wider than the bound the medians cannot say that, and the
// metric is unresolved — unless every run of b reads better than every
// run of a.
func verdict(def metricDef, a, b []float64) string {
	worseBy := (median(b) - median(a)) / median(a)
	better := func(x, y float64) bool { return x < y }
	if def.better == "higher" {
		worseBy = -worseBy
		better = func(x, y float64) bool { return x > y }
	}
	if spread(a) > def.bound || spread(b) > def.bound {
		for _, x := range b {
			for _, y := range a {
				if !better(x, y) {
					return "unresolved"
				}
			}
		}
		return "ok"
	}
	if worseBy > def.bound {
		return "worse"
	}
	return "ok"
}

func readDoc(path string) (*doc, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d doc
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// compareDocs prints one row per (workload, end-to-end metric) of two
// result documents and reports whether any row is worse. Failed units
// on side B that side A did not have are worse too: a gain does not
// count when more operations fail.
func compareDocs(w io.Writer, pathA, pathB string) (worse bool, err error) {
	a, err := readDoc(pathA)
	if err != nil {
		return false, err
	}
	b, err := readDoc(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A = %s (%d cpu, %s)\nB = %s (%d cpu, %s)\n", pathA, a.Host.NumCPU, a.Host.Go, pathB, b.Host.NumCPU, b.Host.Go)
	fmt.Fprintf(w, "%-10s %-17s %12s %12s %-5s %8s %7s %8s %8s  %s\n",
		"workload", "metric", "A median", "B median", "unit", "B/A", "bound", "A spread", "B spread", "verdict")
	for _, wl := range workloads {
		wa, wb := a.Workloads[wl.name], b.Workloads[wl.name]
		if wa == nil || wb == nil || len(wa.Timed) == 0 || len(wb.Timed) == 0 {
			continue
		}
		values := func(wd *workloadDoc, name string) (v []float64) {
			for _, r := range wd.Timed {
				v = append(v, r.Metrics[name].Value)
			}
			return v
		}
		failed := func(wd *workloadDoc) (n int) {
			for _, r := range wd.Timed {
				n += r.Failed
			}
			return n
		}
		for _, def := range endToEndDefs {
			va, vb := values(wa, def.name), values(wb, def.name)
			v := verdict(def, va, vb)
			worse = worse || v == "worse"
			fmt.Fprintf(w, "%-10s %-17s %12.4f %12.4f %-5s %8.3f %6.0f%% %7.1f%% %7.1f%%  %s\n",
				wl.name, def.name, median(va), median(vb), def.unit, median(vb)/median(va), 100*def.bound, 100*spread(va), 100*spread(vb), v)
		}
		fa, fb := failed(wa), failed(wb)
		v := "ok"
		if fb > fa {
			v, worse = "worse", true
		}
		fmt.Fprintf(w, "%-10s %-17s %12d %12d %-5s %8s %7s %8s %8s  %s\n", wl.name, "failed_units", fa, fb, "count", "", "any", "", "", v)
	}
	return worse, nil
}
