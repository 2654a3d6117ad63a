package server

import (
	"bytes"
	"context"
	"fmt"
	"strings"

	"sllt/internal/cache"
	"sllt/internal/cts"
	"sllt/internal/design"
	"sllt/internal/liberty"
	"sllt/internal/obs"
	"sllt/internal/tree"
)

// FlowResult is what one job produces: the post-CTS DEF exactly as the
// offline slltcts -out flag would write it, the canonical tree fingerprint,
// the versioned run report, and the level/cluster shape for status.
type FlowResult struct {
	DEF         []byte
	Fingerprint string
	Report      []byte // canonical JSON, schema sllt.obs.report/v1.1
	Levels      int
	Clusters    []int
}

// FlowFunc runs one synthesis job. The server owns scheduling (ctx, the
// worker budget, the shared cache, the recorder feeding the progress
// stream); the flow owns everything between request bytes and result
// bytes. Tests substitute slow or failing flows to drive the queue.
type FlowFunc func(ctx context.Context, req *JobRequest, workers int, rec *obs.Recorder, store *cache.Cache) (*FlowResult, error)

// RunFlow is the production flow: the same parse -> synthesize -> export
// pipeline as cmd/slltcts, fed from the request strings instead of files.
// Both paths ingest through design.Load, resolve their knobs through
// JobOptions.Resolve and export through the streaming DEF writer, so for
// identical inputs and knobs the daemon's DEF is byte-identical to the
// offline CLI's on every engine — the property the e2e test pins. A LEF,
// DEF or Liberty parse error fails the job as the parser wrote it,
// prefixed "lef:", "def:" or "liberty:"; a request's Liberty replaces the
// engine's library, strongest cell included. The parse is the report's
// ingest span.
func RunFlow(ctx context.Context, req *JobRequest, workers int, rec *obs.Recorder, store *cache.Cache) (*FlowResult, error) {
	opts, err := req.Options.Resolve()
	if err != nil {
		return nil, err
	}
	span := rec.Begin("ingest")
	d, err := design.Load(strings.NewReader(req.LEF), strings.NewReader(req.DEF), req.Net)
	if err == nil && req.Liberty != "" {
		opts.Lib, err = liberty.ParseReader(strings.NewReader(req.Liberty))
	}
	span.End()
	if err != nil {
		return nil, err
	}
	if req.Design != "" {
		d.Name = req.Design
	}
	opts.Workers = workers
	opts.Obs = rec
	opts.Cache = store
	opts.Ctx = ctx

	res, err := cts.Run(d, opts)
	if err != nil {
		return nil, err
	}

	var buf bytes.Buffer
	if _, err := cts.ExportDEFWriter(&buf, d, res); err != nil {
		return nil, fmt.Errorf("export: %w", err)
	}
	out := &FlowResult{
		DEF:         buf.Bytes(),
		Fingerprint: tree.Fingerprint(res.Tree),
		Levels:      res.Levels,
		Clusters:    res.Clusters,
	}
	if rec.Enabled() {
		rep := rec.Snapshot()
		data, err := rep.JSON()
		if err != nil {
			return nil, fmt.Errorf("report: %w", err)
		}
		out.Report = data
	}
	return out, nil
}
