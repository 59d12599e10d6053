package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs with the
// "exclusive" interpolation of Python's statistics.quantiles(xs, n=4),
// the rule the benchmark's steadiness is judged by. It needs two values.
func quartiles(xs []float64) (q1, q3 float64, err error) {
	n := len(xs)
	if n < 2 {
		return 0, 0, fmt.Errorf("quartiles of %d values", n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3), nil
}

// spreadMain reads result lines (the benchmark's JSON output, one per
// run) and prints, per metric, the median, the quartiles and the
// quartile distance as a share of the median.
func spreadMain(r io.Reader, w io.Writer) error {
	values := make(map[string][]float64)
	var names []string
	attempted, failed := 0, 0
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		var res result
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil || res.Metrics == nil {
			continue
		}
		attempted += res.Attempted
		failed += res.Failed
		for name, m := range res.Metrics {
			if _, ok := values[name]; !ok {
				names = append(names, name)
			}
			values[name] = append(values[name], m.Value)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(names) == 0 {
		return fmt.Errorf("no result lines")
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-32s %4s %12s %12s %12s %8s\n", "metric", "n", "median", "q1", "q3", "iqr/med")
	for _, name := range names {
		xs := values[name]
		med := median(xs)
		q1, q3, err := quartiles(xs)
		if err != nil {
			q1, q3 = med, med
		}
		share := 0.0
		if med != 0 {
			share = (q3 - q1) / med
		}
		fmt.Fprintf(w, "%-32s %4d %12.6g %12.6g %12.6g %8.4f\n", name, len(xs), med, q1, q3, share)
	}
	fmt.Fprintf(w, "operations: %d attempted, %d failed\n", attempted, failed)
	return nil
}
