package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// schema tags the result document this command writes.
const schema = "sllt-bench/v2"

// header describes the machine and build a document was measured on.
type header struct {
	GoVersion   string `json:"go_version"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"nproc"`
	Seed        int64  `json:"seed"`
	Seconds     int    `json:"seconds"`
	VCSRevision string `json:"vcs_revision"`
}

// document is the sllt-bench/v2 file: one result per workload and mode.
type document struct {
	Schema  string    `json:"schema"`
	Header  header    `json:"header"`
	Results []*result `json:"results"`
}

func newHeader(seed int64, seconds int) header {
	h := header{
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		Seed:        seed,
		Seconds:     seconds,
		VCSRevision: "unknown",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				h.VCSRevision = s.Value
			}
		}
	}
	return h
}

func (h header) String() string {
	return fmt.Sprintf("# slltbench go=%s gomaxprocs=%d nproc=%d seed=%d seconds=%d vcs.revision=%s",
		h.GoVersion, h.GOMAXPROCS, h.NumCPU, h.Seed, h.Seconds, h.VCSRevision)
}

func writeDocument(path string, doc *document) error {
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: one workload in one mode when -workload is given,
// otherwise every workload, untraced then traced, each in a child process
// of its own so peak RSS is per workload. It returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("slltbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload: paper6, large100k, eco10k or daemon (default: all, each in its own process)")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Int("seconds", 15, "how long a workload run measures")
	trace := fs.Int("trace", 0, "0: untraced runs and end-to-end metrics; 1: a traced run and per-layer metrics")
	jsonPath := fs.String("json", "", "write the "+schema+" document here (default sllt-bench.json when running every workload)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 || *seconds < 1 {
		fmt.Fprintln(stderr, "slltbench: -trace must be 0 or 1 and -seconds at least 1")
		return 2
	}
	h := newHeader(*seed, *seconds)
	if *name == "" {
		path := *jsonPath
		if path == "" {
			path = "sllt-bench.json"
		}
		return runAll(h, path, stdout, stderr)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "slltbench: unknown workload %q\n", *name)
		return 2
	}
	fmt.Fprintln(stdout, h)
	res := runWorkload(w, config{seed: *seed, seconds: *seconds, trace: *trace == 1, sizes: fullSizes()})
	printResult(stdout, res)
	if *jsonPath != "" {
		if err := writeDocument(*jsonPath, &document{Schema: schema, Header: h, Results: []*result{res}}); err != nil {
			fmt.Fprintln(stderr, "slltbench:", err)
			return 1
		}
	}
	if err := writeSummary(stdout, res); err != nil {
		fmt.Fprintln(stderr, "slltbench:", err)
		return 1
	}
	if !summarize(res).Correct {
		return 1
	}
	return 0
}

// runAll runs every workload untraced and then traced, each in a child
// process, forwards their metric lines and merges their documents.
func runAll(h header, path string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "slltbench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp("", "slltbench-all-")
	if err != nil {
		fmt.Fprintln(stderr, "slltbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	fmt.Fprintln(stdout, h)
	doc := &document{Schema: schema, Header: h}
	code := 0
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			part := filepath.Join(tmp, fmt.Sprintf("%s-%d.json", w.name, trace))
			var out bytes.Buffer
			cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(h.Seed, 10),
				"-seconds", strconv.Itoa(h.Seconds), "-trace", strconv.Itoa(trace), "-json", part)
			cmd.Stdout = &out
			cmd.Stderr = stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "slltbench: %s (trace %d): %v\n", w.name, trace, err)
				code = 1
			}
			forwardMetricLines(stdout, &out)
			data, err := os.ReadFile(part)
			if err != nil {
				fmt.Fprintln(stderr, "slltbench:", err)
				code = 1
				continue
			}
			var d document
			if err := json.Unmarshal(data, &d); err != nil {
				fmt.Fprintln(stderr, "slltbench:", err)
				code = 1
				continue
			}
			doc.Results = append(doc.Results, d.Results...)
			for _, r := range d.Results {
				fmt.Fprintf(stdout, "%s wall_s %.6g s (n=1)\n", r.Workload, r.WallS)
			}
		}
	}
	if err := writeDocument(path, doc); err != nil {
		fmt.Fprintln(stderr, "slltbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, "wrote", path)
	return code
}

// forwardMetricLines copies a child's metric lines, leaving out its header
// and the summary line meant for single-workload callers.
func forwardMetricLines(w io.Writer, out *bytes.Buffer) {
	sc := bufio.NewScanner(out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.HasPrefix(line, "{") {
			continue
		}
		fmt.Fprintln(w, line)
	}
}
