// Command bench is the repository benchmark described by BENCHMARK.json at
// the repository root: four workloads, an end-to-end pass that times what a
// library caller and a service operator wait for, and a separate traced
// pass that times every layer from outside, through its exported functions.
// README.md in this directory defines every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"parlap/internal/gen"
	"parlap/internal/graph"
)

const eps = 1e-6

// workload is one fixed input and the way it is driven. Sizes shrink under
// -smoke; everything else (workers, lanes, baseline repetitions) is part of
// the workload's definition and must not change between compared commits.
type workload struct {
	name       string
	graph      func(smoke bool) *graph.Graph
	spec       string // generator spec the service registers (serve_http), else the graph is posted as an edge list
	smokeSpec  string
	workers    int // solver.Options.Workers of the library caller
	lanes      int // right-hand sides per call: 1 = Solve, k = SolveBlockTraced
	cgReps     int
	jacobiReps int
	serve      bool    // the timed phase goes through HTTP
	tailPct    float64 // percentile reported as solve_tail_s
}

// graphSeed fixes the random graphs. The graph is part of a workload's
// definition: drawing new exponential weights or a new attachment graph
// per run changes the chain (levels, iteration counts) and moves solve_s by
// up to 2.7x between seeds, which would bury any code change. -seed drives
// the right-hand sides and request bodies instead.
const graphSeed = 1

func grid(smoke bool) *graph.Graph {
	if smoke {
		return gen.Grid2D(24, 24)
	}
	return gen.Grid2D(96, 96)
}

var workloads = []*workload{
	{
		name: "grid_unit", graph: grid,
		workers: 1, lanes: 1, cgReps: 5, jacobiReps: 5, tailPct: 75,
	},
	{
		name: "grid_expw",
		graph: func(smoke bool) *graph.Graph {
			return gen.WithExponentialWeights(grid(smoke), 8, 8, graphSeed)
		},
		workers: 1, lanes: 1, cgReps: 1, jacobiReps: 2, tailPct: 90,
	},
	{
		name: "pa_block_par",
		graph: func(smoke bool) *graph.Graph {
			if smoke {
				return gen.PreferentialAttachment(600, 4, graphSeed)
			}
			return gen.PreferentialAttachment(10000, 4, graphSeed)
		},
		workers: 0, lanes: 8, cgReps: 5, jacobiReps: 5, tailPct: 75,
	},
	{
		name: "serve_http",
		graph: func(smoke bool) *graph.Graph {
			if smoke {
				return gen.Path(2000)
			}
			return gen.Path(20000)
		},
		spec: "path:20000", smokeSpec: "path:2000",
		workers: 0, lanes: 1, cgReps: 1, jacobiReps: 1, serve: true, tailPct: 99,
	},
}

// rhs is right-hand side number i of a run: the same (seed, i) always gives
// the same vector. The solver projects it onto range(L) itself.
func rhs(n int, seed int64, i int) []float64 {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
	b := make([]float64, n)
	for j := range b {
		b[j] = rng.NormFloat64()
	}
	return b
}

// benchSpec is BENCHMARK.json: the one place the metric lists, units,
// directions and bounds live. The program reads it to know which of the
// values it measured go on the result line and what -compare gates.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec finds BENCHMARK.json in the working directory (the repository
// root, how the command in BENCHMARK.json runs) or its parent (go run from
// inside bench/), and returns it with the root it was found in.
func loadSpec() (*benchSpec, string, error) {
	for _, root := range []string{".", ".."} {
		data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
		if err != nil {
			continue
		}
		var spec benchSpec
		if err := json.Unmarshal(data, &spec); err != nil {
			return nil, "", fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return &spec, root, nil
	}
	return nil, "", fmt.Errorf("BENCHMARK.json not found in . or ..: run from the repository root or from bench/")
}

// run is one pass over one workload.
type run struct {
	w       *workload
	res     *runResult
	spans   *spanLog // nil in the end-to-end pass
	seed    int64
	seconds float64
	smoke   bool
	tmpDir  string // scratch for snapshot stores, inside bench/out
	opMu    sync.Mutex
}

// op records one verified operation; failures keep a short description.
// The HTTP clients call it from their own goroutines.
func (r *run) op(ok bool, format string, args ...any) {
	r.opMu.Lock()
	defer r.opMu.Unlock()
	r.res.Attempted++
	if ok {
		return
	}
	r.res.Failed++
	if len(r.res.Failures) < 8 {
		r.res.Failures = append(r.res.Failures, fmt.Sprintf(format, args...))
	}
}

func runWorkload(w *workload, seed int64, seconds float64, trace, smoke bool, outDir string) (*runResult, error) {
	tmp := filepath.Join(outDir, fmt.Sprintf("tmp-%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	r := &run{
		w: w, seed: seed, seconds: seconds, smoke: smoke, tmpDir: tmp,
		res: &runResult{
			Workload: w.name, Trace: trace, Seed: seed, Seconds: seconds, Smoke: smoke,
			Samples: map[string]int{}, Clients: 1, Provenance: machineProvenance(),
		},
	}
	var err error
	switch {
	case trace:
		r.spans = &spanLog{t0: time.Now()}
		if err = r.tracePass(); err == nil {
			err = r.spans.write(filepath.Join(outDir, w.name+".trace.json"))
		}
	case w.serve:
		err = r.serveE2E()
	default:
		err = r.solverE2E()
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	fs := 0.0
	if r.res.Attempted > 0 {
		fs = float64(r.res.Failed) / float64(r.res.Attempted)
	}
	r.res.put("fail_share", "ratio", fs)
	return r.res, nil
}

// resultLine is the last line of a single-workload run: the metrics
// BENCHMARK.json lists for this pass, and only those.
func resultLine(spec *benchSpec, res *runResult) (string, error) {
	want := spec.EndToEnd
	if res.Trace {
		want = spec.PerLayer
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, map[string]mv{}}
	for _, m := range want {
		got := res.find(m.Name)
		if got == nil {
			return "", fmt.Errorf("workload %s did not emit %s, which BENCHMARK.json lists", res.Workload, m.Name)
		}
		if got.Unit != m.Unit {
			return "", fmt.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
		out.Metrics[m.Name] = mv{got.Value, got.Unit}
	}
	data, err := json.Marshal(out)
	return string(data), err
}

func printRun(spec *benchSpec, res *runResult) {
	pass := "end-to-end pass, tracing off"
	if res.Trace {
		pass = "traced pass"
	}
	fmt.Printf("== %s: %s, seed %d, %g s timed phase ==\n", res.Workload, pass, res.Seed, res.Seconds)
	for _, w := range spec.Workloads {
		if w.Name == res.Workload {
			fmt.Printf("why: %s\n", w.Why)
		}
	}
	p := res.Provenance
	fmt.Printf("machine: %s, %d CPUs, GOMAXPROCS %d, LLC %.1f MB, %s, commit %s\n",
		p.CPUModel, p.NumCPU, p.GOMAXPROCS, float64(p.LLCBytes)/1e6, p.GoVersion, p.GitSHA)
	fmt.Printf("samples: %v, timed phase %.2f s, %d closed-loop client(s)\n", res.Samples, res.TimedWallS, res.Clients)
	for _, m := range res.Metrics {
		note := m.Note
		if m.Exact {
			note = "exact " + note
		}
		fmt.Printf("  %-34s %14.6g %-6s %s\n", m.Name, m.Value, m.Unit, note)
	}
	fmt.Printf("ops: attempted %d, succeeded %d, failed %d\n", res.Attempted, res.Attempted-res.Failed, res.Failed)
	for _, f := range res.Failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
}

func main() {
	workloadFlag := flag.String("workload", "", "run one workload (default: all four)")
	seed := flag.Int64("seed", 1, "drives every right-hand side and request body")
	seconds := flag.Float64("seconds", 0, "length of the timed phase (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end pass")
	smoke := flag.Bool("smoke", false, "shrink the inputs (self-test sizes)")
	out := flag.String("out", "", "append the runs to this result-set file")
	compare := flag.Bool("compare", false, "compare two result sets: -compare a.json b.json")
	flag.Parse()

	spec, root, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two result-set files")
			os.Exit(2)
		}
		os.Exit(compareSets(spec, flag.Arg(0), flag.Arg(1), os.Stdout))
	}
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
		if *smoke {
			*seconds = 0.3
		}
	}
	var selected []*workload
	for _, w := range workloads {
		if *workloadFlag == "" || *workloadFlag == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadFlag)
		os.Exit(2)
	}
	outDir := filepath.Join(root, "bench", "out")
	var results []*runResult
	for _, w := range selected {
		res, err := runWorkload(w, *seed, *seconds, *trace != 0, *smoke, outDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		results = append(results, res)
		printRun(spec, res)
		line, err := resultLine(spec, res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Println(line)
	}
	if *out != "" {
		if err := appendResults(*out, results); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
}
