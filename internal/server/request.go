package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"sllt/internal/baseline"
	"sllt/internal/cts"
)

// JobRequest is the POST /jobs payload: the design sources inline plus the
// synthesis knobs. The LEF/DEF/Liberty strings are the same text the
// offline CLIs read from disk; at ingest they stream through the repo's
// fixed-buffer Parse*Reader paths, so a request is parsed with the same
// bounded-memory machinery as a file.
type JobRequest struct {
	// Design, when non-empty, overrides the DEF's DESIGN name in reports.
	Design string `json:"design,omitempty"`
	// Net names the clock net; empty selects the first USE CLOCK net.
	Net string `json:"net,omitempty"`
	// LEF and DEF are the design sources (required).
	LEF string `json:"lef"`
	DEF string `json:"def"`
	// Liberty, when non-empty, replaces the built-in buffer library.
	Liberty string `json:"liberty,omitempty"`
	// Options are the synthesis knobs; the zero value means server defaults.
	Options JobOptions `json:"options"`
}

// JobOptions mirrors the slltcts flags. Zero values select the engine
// defaults, so a minimal request is just {lef, def}.
type JobOptions struct {
	// Engine names a baseline.Engines entry; empty selects "ours".
	Engine string `json:"engine,omitempty"`
	// SkewPs overrides the engine's skew bound when non-zero.
	SkewPs float64 `json:"skew_ps,omitempty"` // unit: ps
	// Fanout overrides the engine's max fanout when non-zero.
	Fanout int `json:"fanout,omitempty"`
	// MaxCapFF overrides the engine's max stage capacitance when non-zero.
	MaxCapFF float64 `json:"max_cap_ff,omitempty"` // unit: fF
	// Seed overrides the engine's random seed when non-zero.
	Seed int64 `json:"seed,omitempty"`
	// Workers caps this job's goroutines; the server clamps it to the
	// per-job share of its global worker budget. <= 0 takes the full share.
	Workers int `json:"workers,omitempty"`
}

// engine returns the baseline.Engines entry the options name.
func (o JobOptions) engine() (baseline.Engine, error) {
	if o.Engine == "" {
		return baseline.Lookup("ours")
	}
	return baseline.Lookup(o.Engine)
}

// Resolve returns the flow configuration the options select: the engine's
// cts.Options with each non-zero knob written over the engine's value and
// each zero knob keeping it. Workers is left to the caller, which owns the
// goroutine budget. RunFlow and cmd/slltcts both resolve through here, so
// one set of knobs selects one flow on every front end.
func (o JobOptions) Resolve() (cts.Options, error) {
	e, err := o.engine()
	if err != nil {
		return cts.Options{}, err
	}
	opts := e.Options()
	if o.SkewPs != 0 {
		opts.Cons.SkewBound = o.SkewPs
	}
	if o.Fanout != 0 {
		opts.Cons.MaxFanout = o.Fanout
	}
	if o.MaxCapFF != 0 {
		opts.Cons.MaxCap = o.MaxCapFF
	}
	if o.Seed != 0 {
		opts.Seed = o.Seed
	}
	return opts, nil
}

// maxWorkersOption bounds the per-job worker request; anything above is a
// client error rather than a silent clamp.
const maxWorkersOption = 4096

// DecodeJobRequest parses and validates a job-submission payload. The
// decode is strict — unknown fields, trailing data and out-of-range knobs
// are errors, so a typo'd field name can never silently select a default.
// It never panics on arbitrary input (FuzzDecodeJobRequest) and an accepted
// request survives an encode/decode round trip unchanged.
func DecodeJobRequest(data []byte) (*JobRequest, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	req := &JobRequest{}
	if err := dec.Decode(req); err != nil {
		return nil, fmt.Errorf("job request: %w", err)
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return nil, fmt.Errorf("job request: trailing data after JSON object")
	}
	if err := req.validate(); err != nil {
		return nil, fmt.Errorf("job request: %w", err)
	}
	return req, nil
}

// validate checks the decoded request's semantic constraints.
func (r *JobRequest) validate() error {
	if r.LEF == "" {
		return fmt.Errorf("missing required field \"lef\"")
	}
	if r.DEF == "" {
		return fmt.Errorf("missing required field \"def\"")
	}
	if _, err := r.Options.engine(); err != nil {
		return err
	}
	if r.Options.SkewPs < 0 {
		return fmt.Errorf("skew_ps %v out of range (want >= 0)", r.Options.SkewPs)
	}
	if r.Options.Fanout < 0 {
		return fmt.Errorf("fanout %d out of range (want >= 0)", r.Options.Fanout)
	}
	if r.Options.MaxCapFF < 0 {
		return fmt.Errorf("max_cap_ff %v out of range (want >= 0)", r.Options.MaxCapFF)
	}
	if r.Options.Workers < 0 || r.Options.Workers > maxWorkersOption {
		return fmt.Errorf("workers %d out of range (want 0..%d)", r.Options.Workers, maxWorkersOption)
	}
	return nil
}
