package analysis

import (
	"encoding/json"
	"io"
	"path/filepath"
	"strings"
)

// SARIF 2.1.0 document structure — the subset code-scanning backends
// require: schema/version header, one run with a tool driver declaring its
// rules, and one result per diagnostic with a physical location.
type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string        `json:"id"`
	ShortDescription sarifMessage  `json:"shortDescription"`
	FullDescription  *sarifMessage `json:"fullDescription,omitempty"`
	HelpURI          string        `json:"helpUri,omitempty"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	RuleIndex int             `json:"ruleIndex"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI       string `json:"uri"`
	URIBaseID string `json:"uriBaseId,omitempty"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// WriteSARIF renders the diagnostics as a SARIF 2.1.0 log for the given
// analyzer set (every analyzer becomes a rule, findings or not, so rule
// metadata is stable across runs). File paths are emitted relative to root
// with forward slashes, the form code-scanning uploads expect.
func WriteSARIF(w io.Writer, diags []Diagnostic, analyzers []*Analyzer, root string) error {
	driver := sarifDriver{
		Name:  "slltlint",
		Rules: []sarifRule{},
	}
	ruleIndex := make(map[string]int)
	for _, az := range analyzers {
		ruleIndex[az.Name] = len(driver.Rules)
		rule := sarifRule{
			ID:               az.Name,
			ShortDescription: sarifMessage{Text: az.Doc},
			HelpURI:          az.URL,
		}
		if az.Doc != "" {
			rule.FullDescription = &sarifMessage{Text: az.Doc}
		}
		driver.Rules = append(driver.Rules, rule)
	}
	results := []sarifResult{}
	for _, d := range diags {
		idx, ok := ruleIndex[d.Analyzer]
		if !ok {
			idx = len(driver.Rules)
			ruleIndex[d.Analyzer] = idx
			driver.Rules = append(driver.Rules, sarifRule{
				ID:               d.Analyzer,
				ShortDescription: sarifMessage{Text: d.Analyzer},
			})
		}
		results = append(results, sarifResult{
			RuleID:    d.Analyzer,
			RuleIndex: idx,
			Level:     "warning",
			Message:   sarifMessage{Text: d.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysical{
					ArtifactLocation: sarifArtifact{
						URI:       relPath(root, d.Position.Filename),
						URIBaseID: "%SRCROOT%",
					},
					Region: sarifRegion{
						StartLine:   d.Position.Line,
						StartColumn: d.Position.Column,
					},
				},
			}},
		})
	}
	log := sarifLog{
		Schema:  "https://docs.oasis-open.org/sarif/sarif/v2.1.0/errata01/os/schemas/sarif-schema-2.1.0.json",
		Version: "2.1.0",
		Runs:    []sarifRun{{Tool: sarifTool{Driver: driver}, Results: results}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}

// relPath returns path relative to root in slash form, or the slashed
// absolute path when it does not sit under root (or root is empty).
func relPath(root, path string) string {
	if root != "" {
		if rel, err := filepath.Rel(root, path); err == nil && !strings.HasPrefix(rel, "..") {
			return filepath.ToSlash(rel)
		}
	}
	return filepath.ToSlash(path)
}
