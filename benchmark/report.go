package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// report is what one child process hands back to the parent on the last
// line of its standard output.
type report struct {
	// Setup holds the wall time of each set-up repetition, in seconds.
	Setup []float64 `json:"setup,omitempty"`
	// Metrics are the values this child measured, by metric name, and
	// Samples the number of observations behind each one.
	Metrics map[string]float64 `json:"metrics"`
	Samples map[string]int     `json:"samples"`
	// Attempted counts every operation and output check; Failed those
	// that returned an error or a wrong answer, described in Errors.
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	// Info describes the input (units, lines) for the header lines.
	Info map[string]string `json:"info,omitempty"`
	// TracePath is where a traced run wrote its Chrome trace.
	TracePath string `json:"trace_path,omitempty"`

	mu sync.Mutex
}

func newReport() *report {
	return &report{Metrics: map[string]float64{}, Samples: map[string]int{}, Info: map[string]string{}}
}

// maxErrors caps the failure messages a report carries; the count stays
// exact.
const maxErrors = 10

// check records one attempted operation or output check, failing it
// with the formatted message when ok is false. Safe for concurrent use.
func (r *report) check(ok bool, format string, args ...any) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Attempted++
	if !ok {
		r.Failed++
		if len(r.Errors) < maxErrors {
			r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// add records n more attempted operations that succeeded.
func (r *report) add(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Attempted += n
}

// ok records one attempted operation that fails when err is non-nil.
func (r *report) ok(err error, what string) bool {
	return r.check(err == nil, "%s: %v", what, err)
}

// set records a metric with its sample count.
func (r *report) set(name string, v float64, n int) {
	r.Metrics[name] = v
	r.Samples[name] = n
}

// setQ records the q-quantile of xs under name.
func (r *report) setQ(name string, xs []float64, q float64) {
	r.set(name, quantile(xs, q), len(xs))
}

// quantile returns the q-quantile of xs, interpolating linearly between
// the closest ranks; it returns 0 for no samples and leaves xs unsorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
