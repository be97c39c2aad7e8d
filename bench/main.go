// Command bench is the repository's benchmark: six named workloads, each
// reporting the end-to-end metrics a user of the system would see (untraced
// run) or the per-layer metrics that should explain them (traced run). See
// README.md in this directory for what each number means and which clock —
// host wall time or the simulated device — it is on.
//
//	bash bench/run.sh --workload train-cora-seq --seed 7 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one run of one workload prints as its last line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one workload run's settings and everything it measures. Values
// are keyed by metric name; finish keeps the ones the run's table lists.
type run struct {
	sp  *spec
	opt options
	log io.Writer
	cal *calibrator

	values    map[string]float64
	counts    map[string]int // samples behind a value, printed beside it
	attempted int
	failed    int
	problems  []string // verification checks that did not hold
}

func (r *run) set(name string, v float64)         { r.values[name] = v }
func (r *run) setN(name string, v float64, n int) { r.values[name] = v; r.counts[name] = n }

// logf writes the human-readable report; a failed write to it loses a line
// of commentary, never a result, so its error is dropped.
func (r *run) logf(format string, a ...any) { _, _ = fmt.Fprintf(r.log, format, a...) }

func (r *run) window(share float64) time.Duration {
	return time.Duration(share * r.opt.seconds * float64(time.Second))
}
func (r *run) check(ok bool, format string, a ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, a...))
	}
}

// options are one run's settings. quick shortens warm-up, verification and
// set-up repeats for the smoke test; outDir is where a traced run writes its
// Chrome trace.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	quick   bool
	outDir  string
}

func runWorkload(sp *spec, opt options, log io.Writer) (*report, error) {
	r := &run{sp: sp, opt: opt, log: log, cal: newCalibrator(),
		values: map[string]float64{}, counts: map[string]int{}}
	r.logf("== %s  seed=%d  seconds=%g  trace=%v  GOMAXPROCS=%d\n", sp.name, opt.seed, opt.seconds, opt.trace, runtime.GOMAXPROCS(0))
	before := r.cal.median41()
	var err error
	switch sp.kind {
	case trainSeq:
		err = runTrainSeq(r)
	case trainDP:
		err = runTrainDP(r)
	case planOnly:
		err = runPlan(r)
	case serving:
		err = runServe(r)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sp.name, err)
	}
	after := r.cal.median41()
	drift := after/before - 1
	r.set("bench.calib_gflops", before)
	r.set("bench.calib_drift_frac", drift)
	noisy := ""
	if drift > 0.05 || drift < -0.05 {
		noisy = "  noisy: the host changed speed during this workload"
	}
	r.logf("calibration kernel  before %.3f GFLOP/s  after %.3f GFLOP/s  drift %+.1f%%%s\n", before, after, 100*drift, noisy)
	return r.finish()
}

// finish prints the run's table by name with units and builds the report.
func (r *run) finish() (*report, error) {
	table := endToEnd
	if r.opt.trace {
		table = perLayer
	}
	rep := &report{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metric{}}
	for _, d := range table {
		v, ok := r.values[d.name]
		if !ok && !r.opt.trace {
			return nil, fmt.Errorf("%s: end-to-end metric %s was not measured", r.sp.name, d.name)
		}
		rep.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		n := ""
		if c := r.counts[d.name]; c > 0 {
			n = fmt.Sprintf("  (n=%d)", c)
		}
		r.logf("  %-40s %14.6g %s%s\n", d.name, v, d.unit, n)
	}
	r.logf("  attempted %d  failed %d  fail_frac %.5f\n", r.attempted, r.failed, ratio(float64(r.failed), float64(r.attempted)))
	for _, p := range r.problems {
		r.logf("  VERIFICATION FAILED: %s\n", p)
	}
	if rep.Attempted < 1 {
		return nil, fmt.Errorf("%s: nothing was attempted", r.sp.name)
	}
	return rep, nil
}

func main() {
	name := flag.String("workload", "all", "workload name, or all to run the six in order")
	seed := flag.Int64("seed", 7, "seed for the dataset, the model weights and the batch stream")
	seconds := flag.Float64("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics, budget table, Chrome trace in bench/out/")
	flag.Parse()

	var specs []*spec
	if *name == "all" {
		for i := range workloads {
			specs = append(specs, &workloads[i])
		}
	} else {
		sp, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		specs = []*spec{sp}
	}
	ok := true
	for _, sp := range specs {
		rep, err := runWorkload(sp, options{seed: *seed, seconds: *seconds, trace: *trace != 0, outDir: "bench/out"}, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		line, err := json.Marshal(rep)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Printf("%s\n", line)
		ok = ok && rep.Correct
	}
	if !ok {
		os.Exit(1)
	}
}
