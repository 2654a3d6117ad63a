package registry_test

import (
	"bytes"
	"encoding/json"
	"go/token"
	"regexp"
	"slices"
	"testing"

	"sllt/internal/analysis"
	"sllt/internal/analysis/registry"
)

var identRe = regexp.MustCompile(`^[a-z][a-z0-9]*$`)

// roster is the exact analyzer list in registry.All's alphabetical order:
// adding or removing an analyzer is a deliberate edit here, never a side
// effect.
var roster = []string{
	"ctxguard", "floatcmp", "maporder", "seededrand",
	"sharedstate", "stagepure", "unitflow", "wallclock",
}

// TestRosterMetadata asserts the roster is exactly the expected analyzers
// and every one is fully described: a valid identifier name, a
// one-paragraph doc, and a doc URI. SARIF rules inherit all three, so a gap
// here ships anonymous findings to code scanning.
func TestRosterMetadata(t *testing.T) {
	all := registry.All()
	names := make([]string, 0, len(all))
	for _, az := range all {
		if az == nil {
			t.Fatal("nil analyzer in roster")
		}
		if !identRe.MatchString(az.Name) {
			t.Errorf("analyzer name %q is not a lowercase identifier", az.Name)
		}
		if az.Doc == "" {
			t.Errorf("analyzer %s has no Doc", az.Name)
		}
		if az.URL == "" {
			t.Errorf("analyzer %s has no URL (doc URI)", az.Name)
		}
		if az.Run == nil {
			t.Errorf("analyzer %s has no Run", az.Name)
		}
		names = append(names, az.Name)
	}
	if !slices.Equal(names, roster) {
		t.Errorf("roster is %v, want %v", names, roster)
	}
}

// TestRosterSARIF renders one diagnostic per analyzer and checks the SARIF
// output is a structurally valid 2.1.0 log: every rule carries non-empty
// metadata and every result's ruleIndex points at its own rule.
func TestRosterSARIF(t *testing.T) {
	all := registry.All()
	diags := make([]analysis.Diagnostic, 0, len(all))
	for _, az := range all {
		diags = append(diags, analysis.Diagnostic{
			Analyzer: az.Name,
			Message:  "synthetic finding for " + az.Name,
			Position: token.Position{Filename: "/src/pkg/file.go", Line: 1, Column: 1},
		})
	}
	var buf bytes.Buffer
	if err := analysis.WriteSARIF(&buf, diags, all, "/src"); err != nil {
		t.Fatalf("WriteSARIF: %v", err)
	}

	var log struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID               string `json:"id"`
						ShortDescription struct {
							Text string `json:"text"`
						} `json:"shortDescription"`
						HelpURI string `json:"helpUri"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				RuleIndex int    `json:"ruleIndex"`
				Message   struct {
					Text string `json:"text"`
				} `json:"message"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("SARIF output is not valid JSON: %v", err)
	}
	if log.Version != "2.1.0" || log.Schema == "" {
		t.Fatalf("bad SARIF header: version %q schema %q", log.Version, log.Schema)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "slltlint" {
		t.Errorf("driver name %q, want slltlint", run.Tool.Driver.Name)
	}
	if len(run.Tool.Driver.Rules) != len(all) {
		t.Fatalf("got %d rules, want %d", len(run.Tool.Driver.Rules), len(all))
	}
	for i, rule := range run.Tool.Driver.Rules {
		if rule.ID != all[i].Name {
			t.Errorf("rule %d id %q, want %q", i, rule.ID, all[i].Name)
		}
		if rule.ShortDescription.Text == "" {
			t.Errorf("rule %s has empty shortDescription", rule.ID)
		}
		if rule.HelpURI == "" {
			t.Errorf("rule %s has empty helpUri", rule.ID)
		}
	}
	if len(run.Results) != len(all) {
		t.Fatalf("got %d results, want %d", len(run.Results), len(all))
	}
	for _, res := range run.Results {
		if res.RuleIndex < 0 || res.RuleIndex >= len(run.Tool.Driver.Rules) {
			t.Errorf("result %s has out-of-range ruleIndex %d", res.RuleID, res.RuleIndex)
			continue
		}
		if got := run.Tool.Driver.Rules[res.RuleIndex].ID; got != res.RuleID {
			t.Errorf("result %s ruleIndex points at %s", res.RuleID, got)
		}
		if len(res.Locations) != 1 || res.Locations[0].PhysicalLocation.ArtifactLocation.URI != "pkg/file.go" {
			t.Errorf("result %s has bad location %+v", res.RuleID, res.Locations)
		}
	}
}
