package hotpath

import (
	"bytes"
	"fmt"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"

	"sllt/internal/analysis"
)

// escapeCheck enables the compiler cross-check. Off by default: the static
// summary pass is self-contained and the cross-check shells out to the go
// tool. cmd/slltlint -escapecheck turns it on.
var escapeCheck bool

// SetEscapeCheck toggles the `go build -gcflags=-m` escape cross-check for
// subsequent runs.
func SetEscapeCheck(on bool) { escapeCheck = on }

// An escDiag is one parsed compiler escape diagnostic.
type escDiag struct {
	file string // absolute path
	line int
	msg  string
	heap bool // "escapes to heap" / "moved to heap" (vs "does not escape")
}

// runEscapeAnalysis builds every package containing an alloc-free annotation
// with -gcflags=-m and parses the escape diagnostics into reg.escapes.
// -gcflags applies only to the packages named on the command line, and the
// build cache replays the diagnostics on repeat runs, so the check is
// deterministic and does not force rebuilds of the rest of the module.
func runEscapeAnalysis(reg *registry) error {
	if !escapeCheck || reg.modDir == "" {
		return nil
	}
	paths := map[string]bool{}
	for _, k := range analysis.SortedKeys(reg.funcs) {
		if ann := reg.funcs[k]; ann.tier == tierAllocFree {
			paths[ann.pkg] = true
		}
	}
	if len(paths) == 0 {
		return nil
	}
	args := append([]string{"build", "-gcflags=-m"}, analysis.SortedKeys(paths)...)
	cmd := exec.Command("go", args...)
	cmd.Dir = reg.modDir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("hotpath: escape cross-check build failed: %v\n%s", err, tail(out, 2048))
	}
	reg.escapes = parseEscapes(reg.modDir, out)
	return nil
}

// parseEscapes extracts file:line diagnostics that carry an escape verdict.
// Lines look like:
//
//	internal/geom/index/grid.go:307:17: moved to heap: h
//	internal/rsmt/steiner_queue.go:85:13: append does not escape
//	# sllt/internal/rsmt
//
// Paths are relative to the module root; "#" package headers and inlining
// chatter are skipped.
func parseEscapes(modDir string, out []byte) []escDiag {
	var diags []escDiag
	for _, raw := range bytes.Split(out, []byte("\n")) {
		line := strings.TrimSpace(string(raw))
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		heap := strings.Contains(line, "escapes to heap") || strings.Contains(line, "moved to heap")
		stack := strings.Contains(line, "does not escape")
		if !heap && !stack {
			continue
		}
		// path:line:col: msg
		parts := strings.SplitN(line, ":", 4)
		if len(parts) < 4 {
			continue
		}
		ln, err := strconv.Atoi(parts[1])
		if err != nil {
			continue
		}
		file := parts[0]
		if !filepath.IsAbs(file) {
			file = filepath.Join(modDir, file)
		}
		diags = append(diags, escDiag{
			file: file,
			line: ln,
			msg:  strings.TrimSpace(parts[3]),
			heap: heap,
		})
	}
	return diags
}

// reconcileEscapes folds the compiler's verdicts into one annotation's
// pending findings. Only alloc-free bodies participate — the hot tier's
// loop-context rule has no compiler counterpart. Rules:
//
//   - a pending finding on a line with a heap verdict is upgraded to
//     [compiler-confirmed];
//   - a heuristic finding on a line the compiler proves "does not escape"
//     (and with no heap verdict on the same line) is dropped as a false
//     positive — the value stays on the stack;
//   - a heap verdict on a line with no static finding becomes its own
//     [compiler-confirmed] finding, anchored at the line start;
//   - surviving heuristic findings are tiered [static heuristic]: the
//     analyzer believes them, the compiler neither confirmed nor cleared.
func reconcileEscapes(reg *registry, ann *funcAnn, subject string, pend []pending) []pending {
	if !escapeCheck || ann.tier != tierAllocFree || ann.file == nil {
		return pend
	}
	heapByLine := map[int][]string{}
	stackLines := map[int]bool{}
	for _, d := range reg.escapes {
		if d.file != ann.file.Name() || d.line < ann.startLine || d.line > ann.endLine {
			continue
		}
		if d.heap {
			heapByLine[d.line] = append(heapByLine[d.line], d.msg)
		} else {
			stackLines[d.line] = true
		}
	}
	confirmed := map[int]bool{}
	out := pend[:0]
	for _, p := range pend {
		switch {
		case len(heapByLine[p.line]) > 0:
			confirmed[p.line] = true
			p.msg += " [compiler-confirmed: " + heapByLine[p.line][0] + "]"
		case p.heur && stackLines[p.line]:
			continue // compiler proved it stays on the stack
		case p.heur:
			p.msg += " [static heuristic]"
		}
		out = append(out, p)
	}
	for _, line := range sortedIntKeys(heapByLine) {
		if confirmed[line] {
			continue
		}
		pos := ann.file.LineStart(line)
		for _, msg := range heapByLine[line] {
			out = append(out, pending{
				pos:  pos,
				line: line,
				msg:  fmt.Sprintf("%s: the compiler reports %q inside this alloc-free body [compiler-confirmed]", subject, msg),
			})
		}
	}
	return out
}

func sortedIntKeys(m map[int][]string) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ { // insertion sort; line sets are tiny
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func tail(b []byte, n int) []byte {
	if len(b) <= n {
		return b
	}
	return b[len(b)-n:]
}
