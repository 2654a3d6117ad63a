package analysis

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// funcReporter is a test analyzer that reports once per function
// declaration, which makes suppression behavior directly countable.
func funcReporter(name string) *Analyzer {
	return &Analyzer{
		Name: name,
		Doc:  "reports every function declaration (test analyzer)",
		Run: func(p *Pass) error {
			for _, f := range p.Files {
				for _, d := range f.Decls {
					if fd, ok := d.(*ast.FuncDecl); ok {
						p.Reportf(fd.Name.Pos(), "func %s", fd.Name.Name)
					}
				}
			}
			return nil
		},
	}
}

// A justified //slltlint:ignore must suppress a matching analyzer and comma
// lists must apply to every listed name. A directive for a different
// analyzer, one without a reason, and the retired //lint:ignore spelling
// must not suppress anything.
func TestIgnoreDirectiveForms(t *testing.T) {
	pkgs, err := Load(".", "./testdata/src/ignorefix")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(pkgs, []*Analyzer{funcReporter("testrule")})
	if err != nil {
		t.Fatal(err)
	}
	var survived []string
	for _, d := range diags {
		survived = append(survived, strings.TrimPrefix(d.Message, "func "))
	}
	want := []string{"A", "C", "D", "F"}
	if strings.Join(survived, ",") != strings.Join(want, ",") {
		t.Errorf("surviving diagnostics = %v, want %v", survived, want)
	}
}

// WriteSARIF must emit a structurally valid SARIF 2.1.0 log: schema and
// version headers, every analyzer as a rule, results indexed into the rule
// array, and module-root-relative slash paths under %SRCROOT%.
func TestWriteSARIF(t *testing.T) {
	root := string(filepath.Separator) + filepath.Join("mod", "root")
	azs := []*Analyzer{
		{Name: "alpha", Doc: "first rule"},
		{Name: "beta", Doc: "second rule"},
	}
	diags := []Diagnostic{
		{
			Analyzer: "beta",
			Message:  "a finding",
			Position: token.Position{
				Filename: filepath.Join(root, "internal", "tech", "tech.go"),
				Line:     7, Column: 3,
			},
		},
	}
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, diags, azs, root); err != nil {
		t.Fatal(err)
	}
	var log struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				RuleIndex int    `json:"ruleIndex"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI       string `json:"uri"`
							URIBaseID string `json:"uriBaseId"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if !strings.Contains(log.Schema, "sarif-schema-2.1.0") || log.Version != "2.1.0" {
		t.Errorf("schema/version = %q / %q", log.Schema, log.Version)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "slltlint" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}
	if len(run.Tool.Driver.Rules) != 2 || run.Tool.Driver.Rules[1].ID != "beta" {
		t.Errorf("rules = %+v", run.Tool.Driver.Rules)
	}
	if len(run.Results) != 1 {
		t.Fatalf("got %d results, want 1", len(run.Results))
	}
	res := run.Results[0]
	if res.RuleID != "beta" || res.RuleIndex != 1 {
		t.Errorf("result rule = %q index %d, want beta index 1", res.RuleID, res.RuleIndex)
	}
	loc := res.Locations[0].PhysicalLocation
	if loc.ArtifactLocation.URI != "internal/tech/tech.go" {
		t.Errorf("uri = %q, want module-relative slash path", loc.ArtifactLocation.URI)
	}
	if loc.ArtifactLocation.URIBaseID != "%SRCROOT%" {
		t.Errorf("uriBaseId = %q", loc.ArtifactLocation.URIBaseID)
	}
	if loc.Region.StartLine != 7 {
		t.Errorf("startLine = %d", loc.Region.StartLine)
	}
}
