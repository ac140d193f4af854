// Command perfbench is the repository's benchmark. It runs one named
// workload in-process for a fixed time, checks the workload's outputs,
// and prints every metric by name and unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// instrumentation beyond the client's own request clock. With --trace 1
// the run makes an untraced pass and then a traced pass, and reports
// the per-layer metrics together with the tracing overhead (traced
// minus untraced run_s). See README.md for the workloads and metrics.
//
// Usage, from the root of a checkout:
//
//	bash perfbench/run.sh --workload paper --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"roamsim/internal/experiments"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout))
}

func realMain(args []string, stdout io.Writer) int {
	o, err := parseFlags(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	o.workDir, err = os.MkdirTemp(workRoot, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(o.workDir)

	rep, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := rep.print(stdout, o.trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if rep.failed > 0 {
		return 1
	}
	return 0
}

// workRoot holds each run's scratch directory, relative to the
// directory the benchmark runs in (the checkout root).
const workRoot = ".bench_build"

// options are one run's parameters.
type options struct {
	workload string
	seed     int64
	budget   time.Duration // how long each pass measures
	trace    bool
	workDir  string             // scratch files (artifacts, WALs); removed on exit
	mes      int                // fleet size
	paper    experiments.Config // the paper pipeline's configuration
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs (paper always runs its own configuration)")
	seconds := fs.Int("seconds", 15, "how long each pass measures, in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced pass")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if fs.NArg() > 0 {
		return options{}, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := workloads[*workload]; !ok {
		return options{}, fmt.Errorf("unknown workload %q (want one of %s)", *workload, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 1 {
		return options{}, fmt.Errorf("--seconds %d: want at least 1", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return options{}, fmt.Errorf("--trace %d: want 0 or 1", *trace)
	}
	return options{
		workload: *workload,
		seed:     *seed,
		budget:   time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		mes:      1000,
		paper:    experiments.DefaultConfig(),
	}, nil
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(options, *runReport) error{
	"paper":         runPaper,
	"fleet-mem":     runFleet,
	"fleet-durable": runFleet,
	"fleet-virtual": runFleet,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func run(o options) (*runReport, error) {
	rep := newReport(o)
	start := time.Now()
	if err := workloads[o.workload](o, rep); err != nil {
		return nil, err
	}
	rep.manifest["wall_s"] = time.Since(start).Seconds()
	return rep, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runReport collects a run's metrics, its manifest and its tally of
// attempted and failed operations and checks.
type runReport struct {
	e2e      map[string]metric
	layer    map[string]metric
	manifest map[string]any
	tally
}

// newReport starts a run's report with its manifest and every
// per-layer metric at 0, so a layer the workload never reaches is
// reported as doing no work.
func newReport(o options) *runReport {
	rep := &runReport{
		e2e:      map[string]metric{},
		layer:    map[string]metric{},
		manifest: manifest(o),
	}
	for _, s := range layerSpecs {
		rep.layer[s.name] = metric{0, s.unit}
	}
	return rep
}

// print writes the manifest, every metric as a "metric" line, the
// failed checks, and finally the JSON result line carrying the
// end-to-end (trace off) or per-layer (trace on) metrics.
func (r *runReport) print(w io.Writer, trace bool) error {
	r.setLayers(map[string]float64{"error_rate": r.errorRate()})
	man, err := json.Marshal(r.manifest)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "manifest %s\n", man)
	for _, set := range []map[string]metric{r.e2e, r.layer} {
		for _, name := range sortedKeys(set) {
			fmt.Fprintf(w, "metric %s %v %s\n", name, set[name].Value, set[name].Unit)
		}
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "FAILED %s\n", n)
	}
	metrics := r.e2e
	if trace {
		metrics = r.layer
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// tally counts attempted and failed operations and checks; error_rate
// is failed ÷ attempted. Failed checks are named in notes.
type tally struct {
	attempted, failed int64
	notes             []string
}

// check counts one check and records its failure.
func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted++
	if !ok {
		t.failed++
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
}

// count adds n attempts of which bad failed, without a note.
func (t *tally) count(n, bad int64) {
	t.attempted += n
	t.failed += bad
}

func (t *tally) errorRate() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// scratch makes a fresh directory under the run's work directory.
func scratch(o options, prefix string) (string, error) {
	return os.MkdirTemp(o.workDir, prefix)
}
