// Command perfbench is the repository's benchmark: one load-generating
// process that stands a workload up on the isis facade, drives it for a fixed
// time, checks the outputs, and prints every metric with its unit. The last
// line of standard output is the JSON result.
//
//	go build -o perfbench . && ./perfbench --workload kv-sim --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, the median of
// four child processes that each measure a quarter of the time; with
// --trace 1 it carries the per-layer metrics of one separate traced process,
// and the spans are written under .bench_build/traces. README.md documents the workloads,
// the metrics and the layer -> end-to-end predictions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workloads maps each --workload name to the function that runs it.
var workloads = map[string]func(*run){
	"kv-sim":       kvSim,
	"kv-tcp-wal":   kvTCPWAL,
	"wide-group":   wideGroup,
	"service-tree": serviceTree,
}

// heapCeiling is the HeapInuse above which a run is declared failed rather
// than left to grow into the kernel's OOM killer (the machine the benchmark
// was tuned on has 7 GB, shared).
const heapCeiling = 2 << 30

type result struct {
	Correct   bool                       `json:"correct"`
	Attempted int                        `json:"attempted"`
	Failed    int                        `json:"failed"`
	Metrics   map[string]resultMetricVal `json:"metrics"`
}

type resultMetricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// parts is how many processes an untraced run is split into, one after the
// other. Each measures seconds/parts with its own seed-derived inputs and the
// run reports the median of their figures. A process settles into one of a
// few performance modes for its whole life: four fresh clusters in one
// process agreed within 3% while processes of the same code sat in modes
// 12% apart, so only more processes average the modes out.
const parts = 4

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed for keys, mix and payload sizes")
	seconds := flag.Int("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 for the traced run (per-layer metrics)")
	part := flag.Int("part", -1, "run only this part of an untraced run (the run starts its parts itself)")
	flag.Parse()
	drive, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || *part >= parts {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workloads: %s)\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	dur := time.Duration(*seconds) * time.Second
	if *trace == 0 {
		if *part < 0 {
			os.Exit(runParts(*workload, *seed, *seconds))
		}
		*seed = *seed*parts + int64(*part)
		dur /= parts
	}
	r, err := newRun(*workload, *seed, dur, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	os.Exit(r.execute(drive))
}

// runParts runs the untraced run's parts as child processes, one after the
// other, and prints the median of their end-to-end figures.
func runParts(workload string, seed int64, seconds int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
		emit(result{Correct: false, Attempted: 1, Failed: 1, Metrics: map[string]resultMetricVal{}})
		return 1
	}
	total := result{Correct: true, Metrics: map[string]resultMetricVal{}}
	values := map[string][]float64{}
	// Every "  name value unit" line the parts print, result metrics and
	// the figures that are only printed alike.
	figures, units := map[string][]float64{}, map[string]string{}
	var order []string
	for i := 0; i < parts; i++ {
		cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", "0", "--part", strconv.Itoa(i))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		for _, l := range lines[:len(lines)-1] {
			fmt.Printf("part %d | %s\n", i, l)
			if f := strings.Fields(l); len(f) == 3 && l[0] == ' ' {
				if v, err := strconv.ParseFloat(f[1], 64); err == nil {
					if _, seen := figures[f[0]]; !seen {
						order = append(order, f[0])
					}
					figures[f[0]] = append(figures[f[0]], v)
					units[f[0]] = f[2]
				}
			}
		}
		var res result
		if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || jerr != nil || !res.Correct {
			return fail("part %d failed (%v)", i, err)
		}
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
		}
	}
	fmt.Printf("figures (median of %d parts):\n", parts)
	for _, name := range order {
		fmt.Printf("  %-36s %14.4f %s\n", name, median(figures[name]), units[name])
	}
	fmt.Printf("result metrics (median of %d parts):\n", parts)
	for _, m := range endToEnd {
		v := median(values[m.Name])
		total.Metrics[m.Name] = resultMetricVal{Value: v, Unit: m.Unit}
		fmt.Printf("  %-36s %14.4f %s\n", m.Name, v, m.Unit)
	}
	emit(total)
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// run is the state of one benchmark invocation shared by the workloads.
type run struct {
	name    string
	seed    int64
	seconds time.Duration
	rng     *rand.Rand
	tr      *tracer // nil in the untraced run
	heap    *heapGuard
	tmp     string // temporary directory inside the checkout

	e2e       map[string]float64
	layer     map[string]float64
	attempted int
	failed    int
	errs      []string
}

func newRun(name string, seed int64, seconds time.Duration, traced bool) (*run, error) {
	tmp := filepath.Join(".bench_build", "tmp", fmt.Sprintf("%s-%d-%d", name, seed, os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, fmt.Errorf("temporary dir: %w", err)
	}
	r := &run{
		name: name, seed: seed, seconds: seconds,
		rng:   rand.New(rand.NewSource(seed)),
		tmp:   tmp,
		e2e:   map[string]float64{},
		layer: map[string]float64{},
	}
	for _, m := range perLayer {
		r.layer[m.Name] = 0
	}
	if traced {
		r.tr = newTracer(1)
	}
	return r, nil
}

// phase returns a share of the measured time.
func (r *run) phase(share float64) time.Duration {
	return time.Duration(share * float64(r.seconds))
}

// check records a correctness failure when ok is false.
func (r *run) check(ok bool, format string, args ...any) bool {
	if !ok {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
	return ok
}

// note prints a figure that is reported but not part of the result line.
func (r *run) note(name string, v float64, unit string) {
	fmt.Printf("  %-36s %14.4f %s\n", name, v, unit)
}

func (r *run) execute(drive func(*run)) int {
	defer os.RemoveAll(r.tmp)
	// A GOGC from the environment would change every heap and CPU figure.
	debug.SetGCPercent(100)
	r.heap = startHeapGuard(heapCeiling, func(peak uint64) {
		fmt.Fprintf(os.Stderr, "perfbench: heap %d MB passed the %d MB ceiling; run failed\n", peak>>20, heapCeiling>>20)
		emit(result{Correct: false, Attempted: 1, Failed: 1, Metrics: map[string]resultMetricVal{}})
		os.Exit(1)
	})
	mode := "untraced"
	if r.tr != nil {
		mode = "traced"
	}
	fmt.Printf("perfbench %s seed=%d seconds=%.0f %s\n", r.name, r.seed, r.seconds.Seconds(), mode)
	drive(r)
	r.heap.stop()
	if r.tr == nil {
		r.e2e["heap_peak_mb"] = float64(r.heap.livePeak()) / (1 << 20)
		r.note("heap_inuse_peak_mb", float64(r.heap.peak())/(1<<20), "MB")
	}
	r.check(r.attempted > 0, "no operation attempted")
	r.check(r.failed == 0, "%d of %d operations failed", r.failed, r.attempted)

	// Every end-to-end metric and every time-valued per-layer metric is
	// measured on every workload, so a zero there is a missing figure.
	defs, vals := endToEnd, r.e2e
	if r.tr != nil {
		defs, vals = perLayer, r.layer
	}
	metrics := map[string]resultMetricVal{}
	fmt.Println("result metrics:")
	for _, m := range defs {
		v, ok := vals[m.Name]
		r.check(ok && (v > 0 || (r.tr != nil && !isTime(m.Unit))), "metric %s was not measured", m.Name)
		metrics[m.Name] = resultMetricVal{Value: v, Unit: m.Unit}
		fmt.Printf("  %-36s %14.4f %s\n", m.Name, v, m.Unit)
	}
	if len(r.errs) > 0 {
		for _, e := range r.errs {
			fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", e)
		}
		emit(result{Correct: false, Attempted: max(r.attempted, 1), Failed: max(r.failed, 1), Metrics: map[string]resultMetricVal{}})
		return 1
	}
	emit(result{Correct: true, Attempted: r.attempted, Failed: 0, Metrics: metrics})
	return 0
}

func emit(res result) {
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// finishTrace writes the spans and prints per-layer self times.
func (r *run) finishTrace() {
	if r.tr == nil {
		return
	}
	spans := r.tr.snapshot()
	self := selfTimes(spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println("span self time (per span, from", len(spans), "spans):")
	for _, n := range names {
		lt := self[n]
		fmt.Printf("  %-36s n=%-8d total %10.1f us  self %10.1f us\n", n, lt.Count,
			us(lt.Total)/float64(lt.Count), us(lt.Self)/float64(lt.Count))
	}
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", r.name, r.seed))
	if err := writeTrace(path, spans, self); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
}
