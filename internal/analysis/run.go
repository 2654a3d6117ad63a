package analysis

import (
	"fmt"
	"sort"
	"strings"
)

// IgnorePrefix is the comment directive that suppresses diagnostics:
//
//	//slltlint:ignore floatcmp exact tie-break keeps the comparator transitive
//
// placed on the flagged line or the line directly above it. The analyzer
// name list may contain several comma-separated names. The reason after the
// names is mandatory: a directive without one suppresses nothing, so every
// suppression is justified in place.
const IgnorePrefix = "slltlint:ignore"

// Run applies every analyzer to every package and returns the surviving
// diagnostics sorted by position. Ignore directives are honored here so all
// analyzers share one suppression mechanism.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		ign := ignoresOf(pkg)
		for _, az := range analyzers {
			var found []Diagnostic
			pass := &Pass{
				Analyzer:  az,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				diags:     &found,
			}
			if err := az.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %v", az.Name, pkg.ImportPath, err)
			}
			for _, d := range found {
				if !ign.match(d.Position.Filename, d.Position.Line, d.Analyzer) {
					diags = append(diags, d)
				}
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Position, diags[j].Position
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// ignoreSet maps file -> line -> analyzer names suppressed there.
type ignoreSet map[string]map[int][]string

func (s ignoreSet) match(file string, line int, analyzer string) bool {
	byLine, ok := s[file]
	if !ok {
		return false
	}
	// A directive applies to its own line (trailing comment) and to the
	// line below it (comment-above style).
	for _, l := range []int{line, line - 1} {
		for _, name := range byLine[l] {
			if name == analyzer {
				return true
			}
		}
	}
	return false
}

// ignoresOf scans a package's comments for justified ignore directives.
func ignoresOf(pkg *Package) ignoreSet {
	set := make(ignoreSet)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				rest, ok := strings.CutPrefix(text, IgnorePrefix)
				if !ok {
					continue
				}
				// fields[0] is the analyzer list, the rest the mandatory reason.
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				byLine := set[pos.Filename]
				if byLine == nil {
					byLine = make(map[int][]string)
					set[pos.Filename] = byLine
				}
				for _, name := range strings.Split(fields[0], ",") {
					if name != "" {
						byLine[pos.Line] = append(byLine[pos.Line], name)
					}
				}
			}
		}
	}
	return set
}
