package obs

// LevelQoR is one hierarchy level's quality-of-result record: how much
// wire, skew, latency and buffer resource this level created, and how hard
// the partition kernels worked to create it. Field tags are the canonical
// JSON schema names; each field's `// unit:` comment and JSON suffix name
// its unit.
type LevelQoR struct {
	Level    int `json:"level"`
	Nodes    int `json:"nodes"`    // balancing points entering the level
	Clusters int `json:"clusters"` // nets built at the level

	WL             float64 `json:"wl_um"`              // unit: um // this level's net wire only (pre-graft)
	Skew           float64 `json:"skew_ps"`            // unit: ps // spread of estimated cluster-root delays
	MaxLatency     float64 `json:"max_latency_ps"`     // unit: ps // worst estimated cluster-root delay
	MaxClusterCap  float64 `json:"max_cluster_cap_ff"` // unit: fF // largest cluster sink-cap sum
	Buffers        int     `json:"buffers"`
	BufArea        float64 `json:"buf_area_um2"` // unit: um^2
	KMeansIters    int     `json:"kmeans_iters"`
	KMeansRestarts int     `json:"kmeans_restarts"`
	SAProposed     int     `json:"sa_proposed"`
	SAAccepted     int     `json:"sa_accepted"`
	SAAcceptRate   float64 `json:"sa_accept_rate"` // unit: 1
	AssignMethod   string  `json:"assign_method"`  // "mcf" | "greedy" | ""
	GridQueries    int64   `json:"grid_queries"`
	GridRingSteps  int64   `json:"grid_ring_steps"`
	GridHitRate    float64 `json:"grid_hit_rate"` // unit: 1 // 1 - ring_steps/queries, clamped at 0
}

// Totals mirrors timing.Report: the flow's final QoR numbers.
type Totals struct {
	WL          float64 `json:"wl_um"`          // unit: um
	Skew        float64 `json:"skew_ps"`        // unit: ps
	MaxLatency  float64 `json:"max_latency_ps"` // unit: ps
	Buffers     int     `json:"buffers"`
	BufArea     float64 `json:"buf_area_um2"`     // unit: um^2
	ClockCap    float64 `json:"clock_cap_ff"`     // unit: fF
	MaxStageCap float64 `json:"max_stage_cap_ff"` // unit: fF
	MaxSlew     float64 `json:"max_slew_ps"`      // unit: ps
}

// NetQoR is the per-net build record a cluster task fills: the net's own
// wire and buffer resources, measured before lower-level subtrees are
// grafted in. Tasks write only their own NetQoR, so the level reduction
// (serial, index order) is deterministic.
type NetQoR struct {
	WL      float64 // unit: um
	Buffers int
	BufArea float64 // unit: um^2
}
