package workloadgen

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"pace/internal/query"
)

// JSONL trace format — record once, replay anywhere.
//
// Line 1 is the header; then one line per pool query in index order;
// then one line per arrival in schedule order. Every line is a single
// JSON object, so the file greps and jq's like the other artifacts in
// this repo. Writing is crash-safe the way internal/dataset chunks are:
// the whole trace lands in a *.tmp sibling, is fsynced, and renames
// into place — a torn write never leaves a truncated file that parses.
//
// Compatibility rules (enforced by ReadTrace):
//   - the header's schema must equal TraceSchema — a future breaking
//     change bumps the number and old readers refuse loudly;
//   - the header's table/attr counts must match the replaying dataset's
//     meta — a trace recorded against one schema never silently replays
//     against another;
//   - query and arrival counts must match the header, arrival times
//     must be non-decreasing, and every index must be in range.
//
// Determinism: encoding uses only structs (no maps), so the same
// Schedule always serializes to the same bytes — the record/replay
// tests assert byte identity, not just semantic equality.

// TraceSchema versions the trace file format.
const TraceSchema = 1

// traceHeader is line 1 of a trace.
type traceHeader struct {
	Schema   int      `json:"schema"`
	Kind     string   `json:"kind"`
	Tables   int      `json:"tables"`
	Attrs    int      `json:"attrs"`
	Spec     Spec     `json:"spec"`
	Clients  []Client `json:"clients"`
	Queries  int      `json:"queries"`
	Arrivals int      `json:"arrivals"`
}

const traceKind = "pace-workload-trace"

// traceQuery is one pool query: joined table indexes plus the non-open
// bounds as [attr, lo, hi] triples (the internal/workload persistence
// shape — open [0,1] predicates are implicit).
type traceQuery struct {
	Tables []int        `json:"tables"`
	Bounds [][3]float64 `json:"bounds,omitempty"`
}

// traceArrival is one arrival: microsecond offset, client index, SLO
// class and query index. The class is derivable from the client roster
// but recorded explicitly so the trace is self-describing line by line.
type traceArrival struct {
	US    int64  `json:"us"`
	C     int    `json:"c"`
	Class string `json:"slo"`
	Q     int    `json:"q"`
}

// WriteTrace records the schedule at path (atomically: tmp, fsync,
// rename). m is the dataset meta the queries were generated against.
func WriteTrace(path string, s *Schedule, m *query.Meta) (err error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	w := bufio.NewWriterSize(f, 1<<16)
	enc := json.NewEncoder(w)

	hdr := traceHeader{
		Schema: TraceSchema, Kind: traceKind,
		Tables: m.NumTables(), Attrs: m.NumAttrs(),
		Spec: s.Spec, Clients: s.Clients,
		Queries: len(s.Queries), Arrivals: len(s.Arrivals),
	}
	if err = enc.Encode(hdr); err != nil {
		return err
	}
	for _, q := range s.Queries {
		var tq traceQuery
		for t, in := range q.Tables {
			if in {
				tq.Tables = append(tq.Tables, t)
			}
		}
		for a, b := range q.Bounds {
			if b[0] > 0 || b[1] < 1 {
				tq.Bounds = append(tq.Bounds, [3]float64{float64(a), b[0], b[1]})
			}
		}
		if err = enc.Encode(tq); err != nil {
			return err
		}
	}
	for _, a := range s.Arrivals {
		ta := traceArrival{
			US: a.T.Microseconds(), C: a.Client,
			Class: s.Clients[a.Client].Class, Q: a.Query,
		}
		if err = enc.Encode(ta); err != nil {
			return err
		}
	}
	if err = w.Flush(); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	// Directory fsync so the rename itself survives a crash (same
	// durability contract as internal/dataset chunks).
	if d, derr := os.Open(filepath.Dir(path)); derr == nil {
		d.Sync() //nolint:errcheck // best-effort; rename already landed
		d.Close()
	}
	return nil
}

// ReadTrace loads a trace recorded by WriteTrace, validating it against
// the replaying dataset's meta. The returned Schedule replays the
// recorded stream bit-exactly: same arrival offsets, client identities,
// SLO classes and query keys.
func ReadTrace(path string, m *query.Meta) (*Schedule, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)

	if !sc.Scan() {
		return nil, fmt.Errorf("workloadgen: %s: empty trace", path)
	}
	var hdr traceHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, fmt.Errorf("workloadgen: %s: header: %w", path, err)
	}
	if hdr.Kind != traceKind {
		return nil, fmt.Errorf("workloadgen: %s is not a workload trace (kind %q)", path, hdr.Kind)
	}
	if hdr.Schema != TraceSchema {
		return nil, fmt.Errorf("workloadgen: %s has trace schema %d, this build reads %d", path, hdr.Schema, TraceSchema)
	}
	if hdr.Tables != m.NumTables() || hdr.Attrs != m.NumAttrs() {
		return nil, fmt.Errorf("workloadgen: %s was recorded against a %d-table/%d-attr schema; replay dataset has %d/%d",
			path, hdr.Tables, hdr.Attrs, m.NumTables(), m.NumAttrs())
	}
	spec, err := hdr.Spec.Validate()
	if err != nil {
		return nil, fmt.Errorf("workloadgen: %s: embedded spec: %w", path, err)
	}
	s := &Schedule{Spec: spec, Clients: hdr.Clients}
	if len(s.Clients) == 0 {
		return nil, fmt.Errorf("workloadgen: %s: no clients in header", path)
	}

	for i := 0; i < hdr.Queries; i++ {
		if !sc.Scan() {
			return nil, fmt.Errorf("workloadgen: %s: truncated at query %d/%d", path, i, hdr.Queries)
		}
		var tq traceQuery
		if err := json.Unmarshal(sc.Bytes(), &tq); err != nil {
			return nil, fmt.Errorf("workloadgen: %s: query %d: %w", path, i, err)
		}
		q := query.New(m)
		for _, t := range tq.Tables {
			if t < 0 || t >= m.NumTables() {
				return nil, fmt.Errorf("workloadgen: %s: query %d references table %d of %d", path, i, t, m.NumTables())
			}
			q.Tables[t] = true
		}
		for _, b := range tq.Bounds {
			a := int(b[0])
			if a < 0 || a >= m.NumAttrs() {
				return nil, fmt.Errorf("workloadgen: %s: query %d references attribute %d of %d", path, i, a, m.NumAttrs())
			}
			q.Bounds[a] = [2]float64{b[1], b[2]}
		}
		q.Normalize(m)
		s.Queries = append(s.Queries, q)
	}

	var prev int64 = -1
	for i := 0; i < hdr.Arrivals; i++ {
		if !sc.Scan() {
			return nil, fmt.Errorf("workloadgen: %s: truncated at arrival %d/%d", path, i, hdr.Arrivals)
		}
		var ta traceArrival
		if err := json.Unmarshal(sc.Bytes(), &ta); err != nil {
			return nil, fmt.Errorf("workloadgen: %s: arrival %d: %w", path, i, err)
		}
		if ta.C < 0 || ta.C >= len(s.Clients) {
			return nil, fmt.Errorf("workloadgen: %s: arrival %d references client %d of %d", path, i, ta.C, len(s.Clients))
		}
		if ta.Q < 0 || ta.Q >= len(s.Queries) {
			return nil, fmt.Errorf("workloadgen: %s: arrival %d references query %d of %d", path, i, ta.Q, len(s.Queries))
		}
		if ta.US < prev {
			return nil, fmt.Errorf("workloadgen: %s: arrival %d goes back in time (%dus after %dus)", path, i, ta.US, prev)
		}
		prev = ta.US
		s.Arrivals = append(s.Arrivals, Arrival{
			T: time.Duration(ta.US) * time.Microsecond, Client: ta.C, Query: ta.Q,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workloadgen: %s: %w", path, err)
	}
	return s, nil
}
