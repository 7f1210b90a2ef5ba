// Command perfbench is the repository benchmark. Each invocation runs one
// named workload in a fresh process, checks its outputs, and prints one
// JSON result object as the last line of standard output:
//
//	perfbench --workload serve --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the object carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of a separate traced run. See README.md
// for the workloads, the metrics and how to read a result.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one named figure of the result object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// opts are the command-line settings every workload receives.
type opts struct {
	seed     int64
	seconds  float64
	traced   bool
	serveBin string     // spotserve binary (serve workload only)
	outDir   string     // where the traced run writes its spans
	workers  int        // nproc: worker goroutines, connections, shards
	cal      *hostCalib // host speed during the timed phase
	setupCal *hostCalib // host speed during set-up
}

// outcome is what a workload hands back: the workload-specific end-to-end
// figures (printed by name), the contract metrics, the per-layer metrics of
// a traced run, and the correctness verdict.
type outcome struct {
	attempted, failed int
	named             []namedValue // the workload's own end-to-end figures
	e2e               map[string]metric
	layers            map[string]metric
	checkErr          error
}

type namedValue struct {
	name  string
	value float64
	unit  string
	note  string
}

var workloads = map[string]func(opts) (*outcome, error){
	"serve":       runServe,
	"typed-fleet": runTyped,
	"sweep":       runSweep,
}

func main() {
	workload := flag.String("workload", "", "workload to run: serve, typed-fleet or sweep")
	seed := flag.Int64("seed", 1, "seed every input is derived from")
	seconds := flag.Float64("seconds", 25, "length of the timed phase in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer variant")
	serveBin := flag.String("spotserve", "", "path to a built spotserve binary (serve workload)")
	outDir := flag.String("out", ".bench_build", "directory for span files of traced runs")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok {
		fatalf("unknown workload %q (want serve, typed-fleet or sweep)", *workload)
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fatalf("--seconds must be positive and --trace 0 or 1")
	}
	o := opts{
		seed:     *seed,
		seconds:  *seconds,
		traced:   *traced == 1,
		serveBin: *serveBin,
		outDir:   *outDir,
		workers:  runtime.NumCPU(),
		cal:      &hostCalib{workers: runtime.NumCPU()},
		setupCal: &hostCalib{workers: runtime.NumCPU()},
	}
	out, err := run(o)
	if err != nil {
		fatalf("%s: %v", *workload, err)
	}

	res := result{Correct: out.checkErr == nil, Attempted: out.attempted, Failed: out.failed}
	if o.traced {
		res.Metrics = out.layers
	} else {
		res.Metrics = out.e2e
		for _, nv := range out.named {
			line := fmt.Sprintf("%-28s %14.4f %s", nv.name, nv.value, nv.unit)
			if nv.note != "" {
				line += "  (" + nv.note + ")"
			}
			fmt.Println(line)
		}
		fmt.Printf("%-28s %14.4f %s  (reference kernel median over %g ms in set-up; README.md says what it scales)\n",
			"host_slowdown_setup", o.setupCal.slowdown(), "ratio", calibNominalMS)
		if len(o.cal.samples) > 0 {
			fmt.Printf("%-28s %14.4f %s  (the same in the timed phase)\n",
				"host_slowdown", o.cal.slowdown(), "ratio")
		}
	}
	if out.checkErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: correctness check failed: %v\n", out.checkErr)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(b))
	if out.checkErr != nil {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// setupReps is how many times each workload repeats its set-up; setup_s is
// the median, which keeps one slow process start from moving the figure.
const setupReps = 7

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice). xs is not modified.
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

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// peakRSSMB reads a process's peak resident set size (VmHWM) from /proc.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("VmHWM not found")
}

// cpuSeconds reads a process's user+system CPU time from /proc, in
// seconds (clock ticks at the kernel's usual 100 Hz).
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "stat"))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", s)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat line %q", s)
	}
	return (ut + st) / 100, nil
}

// setupMetric times fn setupReps times and returns the median in seconds;
// reset, when set, runs untimed before each repetition, and cal samples
// the host speed before each repetition and after the last.
func setupMetric(cal *hostCalib, reset func(), fn func() error) (float64, error) {
	var secs []float64
	for i := 0; i < setupReps; i++ {
		if reset != nil {
			reset()
		}
		cal.sample(3)
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	cal.sample(3)
	return median(secs), nil
}

// e2eMetrics builds the contract's end-to-end metric set, which every
// workload reports in its own terms (see README.md). setup_s is scaled to
// the reference host speed by the set-up calibration (calib.go); latencies
// are divided by latSlow and the throughput multiplied by rateSlow, the
// slowdowns that fit the workload.
func e2eMetrics(o opts, latSlow, rateSlow, setupS, rssMB, throughput float64, latencies []float64) map[string]metric {
	return map[string]metric{
		"setup_s":          {setupS / o.setupCal.slowdown(), "s"},
		"peak_rss_mb":      {rssMB, "MB"},
		"throughput_per_s": {throughput * rateSlow, "1/s"},
		"latency_p50_ms":   {quantile(latencies, 0.50) / latSlow, "ms"},
		"latency_p90_ms":   {quantile(latencies, 0.90) / latSlow, "ms"},
	}
}
