package core

import (
	"pace/internal/ce"
	"pace/internal/remote"
	"pace/internal/workload"
)

// Campaign is the public entry point for a full PACE attack: fill in the
// scenario, pick a seed, call Run. Named fields keep every component of
// the threat model visible at the call site, and reproducibility is
// taken by value: a Campaign with the same fields and Seed produces
// bit-identical results on every run, at any Config.Workers setting.
type Campaign struct {
	// Target is the attacker's remote view of the victim estimator
	// (§2.2): opaque predictions plus the incremental-update surface the
	// poison lands on.
	Target ce.Target
	// TargetURL, when Target is nil, dials a live paced estimator
	// service (cmd/paced) at this base URL and runs the whole pipeline
	// over the wire through a remote.RemoteTarget. Exactly one of
	// Target and TargetURL must be set. Against a multi-tenant host the
	// URL may carry the tenant route itself (.../v1/targets/a), or
	// Remote.Tenant may name it; a bare URL attacks the host's default
	// tenant.
	TargetURL string
	// Remote tunes the dialed client when TargetURL is used (batching,
	// coalescing, timeouts, tenant routing, auth); the zero value uses
	// remote defaults.
	Remote remote.Options
	// Workload supplies the attacker's query-generation and COUNT(*)
	// machinery over the target database.
	Workload *workload.Generator
	// Test is the workload whose estimation error the attack maximizes
	// (Eq. 10's L_test).
	Test []workload.Labeled
	// History is the historical workload the anomaly detector learns
	// normality from (§6).
	History []workload.Labeled
	// Config tunes every pipeline stage; the zero value runs the paper's
	// defaults.
	Config Config
	// Seed fixes every random draw of the campaign. Two runs with equal
	// Seed (and equal other fields) are bit-identical.
	Seed int64
}
