package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metric is one named value of a run. Exact marks a count that must repeat
// bit for bit on the same seed (iterations, edge counts); -compare and the
// self-test hold those to equality instead of a bound.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Exact bool    `json:"exact,omitempty"`
	Note  string  `json:"note,omitempty"`
}

// runResult is what one pass over one workload produced; a result file is
// a list of these, each carrying its own provenance so sets can be merged.
type runResult struct {
	Workload   string         `json:"workload"`
	Trace      bool           `json:"trace"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Smoke      bool           `json:"smoke,omitempty"`
	Attempted  int            `json:"attempted"`
	Failed     int            `json:"failed"`
	Failures   []string       `json:"failures,omitempty"`
	Metrics    []metric       `json:"metrics"`
	Samples    map[string]int `json:"samples"`
	TimedWallS float64        `json:"timed_wall_s"`
	Clients    int            `json:"closed_loop_clients"`
	Provenance provenance     `json:"provenance"`
}

type provenance struct {
	GitSHA     string `json:"git_sha"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model"`
	LLCBytes   int64  `json:"llc_bytes"`
	When       string `json:"when"`
}

func (res *runResult) put(name, unit string, v float64) *metric {
	if res.find(name) != nil {
		panic("bench: metric emitted twice: " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("bench: metric %s is %v", name, v))
	}
	res.Metrics = append(res.Metrics, metric{Name: name, Value: v, Unit: unit})
	return &res.Metrics[len(res.Metrics)-1]
}

func (res *runResult) count(name string, v int) {
	res.put(name, "count", float64(v)).Exact = true
}

// find returns the metric called name, or nil.
func (res *runResult) find(name string) *metric {
	for i := range res.Metrics {
		if res.Metrics[i].Name == name {
			return &res.Metrics[i]
		}
	}
	return nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		panic("bench: median of no samples")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the exclusive
// method), which is what the acceptance spread is defined with. A single
// sample has no spread: all three quartiles are that sample.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// percentile is the nearest-rank p-th percentile and the number of samples
// strictly beyond that rank.
func percentile(xs []float64, p float64) (v float64, beyond int) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], len(s) - rank
}

// span is one timed call the benchmark made into a layer. Spans of one
// solve or request share Trace. Synthetic spans are laid end to end from
// the durations a call returned (SolveTrace slots, ?debug=timings), because
// the program does not expose when each stage started.
type span struct {
	ID        int    `json:"id"`
	Parent    int    `json:"parent"` // 0 = root
	Trace     string `json:"trace"`
	Name      string `json:"name"`
	StartNS   int64  `json:"start_ns"`
	EndNS     int64  `json:"end_ns"`
	Synthetic bool   `json:"synthetic,omitempty"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog records
// nothing, which is how the end-to-end pass runs.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func (l *spanLog) begin(name string, parent int, trace string) int {
	if l == nil {
		return 0
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Trace: trace, Name: name, StartNS: now, EndNS: now})
	return len(l.spans)
}

func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	l.spans[id-1].EndNS = now
	l.mu.Unlock()
}

// layOut appends synthetic children of parent, end to end from the
// parent's start, one per (name, duration) pair, and returns their ids.
func (l *spanLog) layOut(parent int, names []string, durNS []int64) []int {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	p := l.spans[parent-1]
	at := p.StartNS
	ids := make([]int, len(names))
	for i, name := range names {
		l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Trace: p.Trace,
			Name: name, StartNS: at, EndNS: at + durNS[i], Synthetic: true})
		ids[i] = len(l.spans)
		at += durNS[i]
	}
	return ids
}

// childCoverage is Σ children ÷ span for every span called name: the share
// of the interval the trace accounts for (1 − self-time share).
func (l *spanLog) childCoverage(name string) float64 {
	if l == nil {
		return 0
	}
	kids := map[int]int64{}
	for _, s := range l.spans {
		kids[s.Parent] += s.EndNS - s.StartNS
	}
	var cov []float64
	for _, s := range l.spans {
		if s.Name == name && s.EndNS > s.StartNS {
			cov = append(cov, float64(kids[s.ID])/float64(s.EndNS-s.StartNS))
		}
	}
	if len(cov) == 0 {
		return 0
	}
	return median(cov)
}

func (l *spanLog) write(path string) error {
	if l == nil {
		return nil
	}
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{l.spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func machineProvenance() provenance {
	p := provenance{
		GitSHA: "unknown", GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: "unknown", When: time.Now().UTC().Format(time.RFC3339),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.GitSHA = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					p.GitSHA += "+dirty"
				}
			}
		}
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	p.LLCBytes = llcBytes()
	return p
}

// llcBytes reads the largest cache the kernel reports for cpu0; 0 when the
// sysfs tree is absent (containers often hide it).
func llcBytes() int64 {
	var best int64
	for i := 0; i < 8; i++ {
		data, err := os.ReadFile(fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/size", i))
		if err != nil {
			break
		}
		s := strings.TrimSpace(string(data))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if v, err := strconv.ParseInt(s, 10, 64); err == nil && v*mult > best {
			best = v * mult
		}
	}
	return best
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's high-water resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// appendResults adds runs to the result set at path (created if absent).
func appendResults(path string, runs []*runResult) error {
	set, err := readResults(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	set = append(set, runs...)
	data, err := json.MarshalIndent(struct {
		Runs []*runResult `json:"runs"`
	}{set}, "", " ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, data, 0o644)
}

func readResults(path string) ([]*runResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set struct {
		Runs []*runResult `json:"runs"`
	}
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return set.Runs, nil
}
