package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bvap"
	"bvap/internal/cluster"
	"bvap/internal/serve"
)

// fleetSize is the number of in-process nodes; replicas the checkpoint
// replication factor.
const (
	fleetSize = 3
	replicas  = 2
)

type fleetNode struct {
	svc  *bvap.Service
	node *cluster.Node
	mem  *cluster.Membership
	srv  *httptest.Server
	tr   *http.Transport // the node's inter-node transport
}

// fleet is three cluster.Nodes over bvap.Services, each behind a loopback
// httptest server, with gossip membership and quorum-replicated session
// checkpoints. No background loop runs: membership is converged by explicit
// probe rounds before timing starts.
type fleet struct {
	nodes []*fleetNode
	urls  []string
	hc    *http.Client // the load generator's client
	ops   opCounts
}

func startFleet(w *workload, nproc int) (*fleet, error) {
	f := &fleet{hc: &http.Client{
		Timeout:   failedLatency,
		Transport: &http.Transport{MaxIdleConnsPerHost: 4 * nproc, DisableCompression: true},
	}}
	for i := 0; i < fleetSize; i++ {
		svc, err := bvap.NewService(w.patterns, nil)
		if err != nil {
			f.close()
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
		mux := http.NewServeMux()
		fn := &fleetNode{svc: svc, srv: httptest.NewServer(mux),
			tr: &http.Transport{MaxIdleConnsPerHost: 4 * nproc, DisableCompression: true}}
		client := cluster.NewClient(cluster.ClientConfig{
			MaxAttempts:    1,
			AttemptTimeout: failedLatency,
			Breaker:        serve.BreakerConfig{Threshold: 1 << 20},
			HTTPClient:     &http.Client{Transport: fn.tr},
		})
		fn.mem = cluster.NewMembership(cluster.MembershipConfig{Self: fn.srv.URL, Client: client})
		client.SetMembership(fn.mem)
		fn.node = cluster.NewNode(svc, cluster.NodeConfig{
			ID:              "node-" + strconv.Itoa(i),
			Membership:      fn.mem,
			Client:          client,
			Replicas:        replicas,
			SessionInterval: w.interval,
		})
		mux.Handle("/", fn.node.Handler())
		f.nodes = append(f.nodes, fn)
		f.urls = append(f.urls, fn.srv.URL)
	}
	ctx := context.Background()
	for _, fn := range f.nodes[1:] {
		if err := fn.mem.Join(ctx, f.urls[:1]); err != nil {
			f.close()
			return nil, fmt.Errorf("join: %w", err)
		}
	}
	for round := 0; !f.converged(); round++ {
		if round == 50 {
			f.close()
			return nil, errors.New("membership did not converge in 50 probe rounds")
		}
		for _, fn := range f.nodes {
			fn.mem.Tick(ctx)
		}
	}
	return f, nil
}

// converged reports whether every node sees all nodes alive at one epoch.
func (f *fleet) converged() bool {
	epoch := f.nodes[0].mem.Epoch()
	for _, fn := range f.nodes {
		if len(fn.mem.Ring().Nodes()) != len(f.nodes) || fn.mem.Epoch() != epoch {
			return false
		}
		for _, u := range f.urls {
			if st, ok := fn.mem.State(u); !ok || st != cluster.StateAlive {
				return false
			}
		}
	}
	return true
}

func (f *fleet) close() {
	for _, fn := range f.nodes {
		fn.srv.Close()
		fn.node.Close()
		fn.svc.Close()
		fn.tr.CloseIdleConnections()
	}
	f.hc.CloseIdleConnections()
}

// owner is the ring owner of a routing key (all views agree once
// converged).
func (f *fleet) owner(key string) string { return f.nodes[0].mem.Ring().Owner(key) }

// opCounts is the fleet failure accounting: every operation is attempted,
// and then either OK or failed with one cause.
type opCounts struct {
	attempted, ok atomic.Int64
	mu            sync.Mutex
	failed        map[string]int64
}

func (c *opCounts) record(err error) {
	c.attempted.Add(1)
	if err == nil {
		c.ok.Add(1)
		return
	}
	cause := "other"
	var se *statusError
	switch {
	case errors.As(err, &se):
		cause = strconv.Itoa(se.status)
	case errors.Is(err, errTransport):
		cause = "transport"
	}
	c.mu.Lock()
	if c.failed == nil {
		c.failed = map[string]int64{}
	}
	c.failed[cause]++
	c.mu.Unlock()
}

func (c *opCounts) failures() int64 { return c.attempted.Load() - c.ok.Load() }

func (c *opCounts) String() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	a, failed := c.attempted.Load(), c.attempted.Load()-c.ok.Load()
	share := 0.0
	if a > 0 {
		share = float64(failed) / float64(a)
	}
	causes := ""
	for _, k := range []string{"429", "503", "504", "500", "transport", "other"} {
		causes += fmt.Sprintf(" %s:%d", k, c.failed[k])
	}
	return fmt.Sprintf("attempted %d, ok %d, failed %d (share %.4f) by cause:%s", a, c.ok.Load(), failed, share, causes)
}

type statusError struct {
	status int
	body   string
}

func (e *statusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.status, e.body) }

var errTransport = errors.New("transport error")

// post sends one JSON request and decodes the reply, returning the number
// of response bytes. Every call is one counted fleet operation.
func (f *fleet) post(url, path string, req, resp any) (int, error) {
	n, err := f.doPost(url, path, req, resp)
	f.ops.record(err)
	return n, err
}

func (f *fleet) doPost(url, path string, req, resp any) (int, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	hres, err := f.hc.Post(url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, fmt.Errorf("%w: %v", errTransport, err)
	}
	defer hres.Body.Close()
	data, err := io.ReadAll(hres.Body)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", errTransport, err)
	}
	if hres.StatusCode != http.StatusOK {
		return len(data), &statusError{status: hres.StatusCode, body: string(bytes.TrimSpace(data))}
	}
	if resp != nil {
		if err := json.Unmarshal(data, resp); err != nil {
			return len(data), fmt.Errorf("decode %s reply: %w", path, err)
		}
	}
	return len(data), nil
}

// scanOp is one one-shot request: body j sent to node target with a
// routing key, so about two in three requests take the inter-node hop.
type scanOp struct {
	body   int
	target int
	key    string
}

func (b *bench) scanOps(n int, seed int64) []scanOp {
	ops := make([]scanOp, n)
	for i := range ops {
		ops[i] = scanOp{
			body:   int(uint64(seed+int64(i)*7919) % uint64(len(b.w.bodies))),
			target: i % fleetSize,
			key:    "k" + strconv.FormatInt(seed, 10) + "-" + strconv.Itoa(i),
		}
	}
	return ops
}

// doScan sends one one-shot request and checks its matches against the
// software reference for the body.
func (b *bench) doScan(f *fleet, op scanOp) (int, error) {
	var resp cluster.ScanResponse
	n, err := f.post(f.urls[op.target], "/cluster/scan", cluster.ScanRequest{Input: b.w.bodies[op.body], Key: op.key}, &resp)
	if err != nil {
		return n, err
	}
	if err := sameMatches(fromWire(resp.Matches), b.bodyRef[op.body]); err != nil {
		return n, b.wrong(fmt.Errorf("fleet scan of body %d: %w", op.body, err))
	}
	return n, nil
}

// session is one load lane's streaming session: it feeds the stream from
// offset 0 in chunks, checkpoints (replicated at quorum) at every interval
// boundary, and is replaced by a fresh one when the stream runs out. Its
// collected matches must equal the reference stream's up to the fed
// offset.
type session struct {
	b       *bench
	f       *fleet
	lane    int
	url, id string
	gen     int
	fed     int
	got     []cluster.Match
	open    bool
}

func (s *session) ensureOpen() error {
	if s.open {
		return nil
	}
	s.gen++
	s.id = "lane" + strconv.Itoa(s.lane) + "-" + strconv.Itoa(s.gen)
	s.fed, s.got = 0, s.got[:0]
	if _, err := s.f.post(s.url, "/cluster/session/open", cluster.SessionOpenRequest{SessionID: s.id, Interval: s.b.w.interval}, nil); err != nil {
		return err
	}
	s.open = true
	return nil
}

// feed sends the next chunk, plus a replicated checkpoint when the chunk
// crosses an interval boundary; both together are one timed operation.
func (s *session) feed() error {
	if err := s.ensureOpen(); err != nil {
		return err
	}
	w := s.b.w
	end := min(s.fed+w.chunk, len(w.stream))
	var resp cluster.SessionResponse
	if _, err := s.f.post(s.url, "/cluster/session/feed", cluster.SessionFeedRequest{SessionID: s.id, Chunk: w.stream[s.fed:end]}, &resp); err != nil {
		// The session's position is unknown now: abandon it unverified
		// and let the next operation open a fresh one.
		s.open = false
		return err
	}
	s.got = append(s.got, resp.Matches...)
	crossed := end/w.interval > s.fed/w.interval
	s.fed = end
	if crossed {
		resp = cluster.SessionResponse{}
		if _, err := s.f.post(s.url, "/cluster/session/checkpoint", cluster.SessionRequest{SessionID: s.id}, &resp); err != nil {
			s.open = false
			return err
		}
		s.got = append(s.got, resp.Matches...)
	}
	if s.fed == len(w.stream) {
		return s.close()
	}
	return nil
}

// close ends the session and verifies everything it delivered.
func (s *session) close() error {
	if !s.open {
		return nil
	}
	s.open = false
	var resp cluster.SessionResponse
	if _, err := s.f.post(s.url, "/cluster/session/close", cluster.SessionRequest{SessionID: s.id}, &resp); err != nil {
		return err
	}
	s.got = append(s.got, resp.Matches...)
	if err := sameMatches(fromWire(s.got), s.b.ref.stream[:s.b.ref.streamBefore(s.fed)]); err != nil {
		return s.b.wrong(fmt.Errorf("fleet session %s over %d bytes: %w", s.id, s.fed, err))
	}
	return nil
}

// openLoop runs n operations at a fixed rate over lanes load lanes (op i
// on lane i mod lanes, so at most lanes are in flight). Each operation is
// timed from when it was due, so a stall also delays the ones queued
// behind it; late records how far behind schedule each one was sent.
func openLoop(n, lanes int, rate float64, do func(lane, i int) error) (lat, late latencies, err error) {
	start := time.Now().Add(10 * time.Millisecond)
	lat.ms = make([]float64, n)
	late.ms = make([]float64, n)
	errs := make([]error, lanes)
	var wg sync.WaitGroup
	for l := 0; l < lanes; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			for i := l; i < n; i += lanes {
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				late.ms[i] = float64(time.Since(due)) / 1e6
				opErr := do(l, i)
				lat.ms[i] = float64(time.Since(due)) / 1e6
				if opErr != nil {
					lat.ms[i] = float64(failedLatency) / 1e6
					var fatal *wrongOutput
					if errors.As(opErr, &fatal) && errs[l] == nil {
						errs[l] = opErr
					}
				}
			}
		}(l)
	}
	wg.Wait()
	return lat, late, errors.Join(errs...)
}

// segmentOps is the length of open-loop segment rep. A timed segment's p90
// has minTail samples beyond it; the warm-up segment, whose samples are
// dropped, is short.
func segmentOps(rep int64) int {
	if rep == 0 {
		return 2 * minTail
	}
	return 10 * minTail
}

// openSegments is the fewest timed open-loop segments of each kind in a
// run.
const openSegments = 2

// openShare is each open-loop meter's share of the run relative to a
// throughput meter's. A latency percentile is the median over segments,
// and a segment lasts a second or more at the slower workloads' rates, so
// with an equal share a run had only four or five of them and a stall
// that spoiled two moved the median.
const openShare = 2

// fleetLoad is phase 7's state across its interleaved repetitions.
type fleetLoad struct {
	f     *fleet
	lanes []*session
	// scanSegs and feedSegs are the latencies of each timed segment.
	scanSegs, feedSegs []latencies
	late               latencies
	// sent, forwarded and respBytes account the one-shot requests.
	sent, forwarded, respBytes int
}

// fleetMeters are phase 7: closed-loop capacity over one-shot scans, and
// open-loop one-shot scans and session feeds at the workload's fixed rates.
// The open loops run in segments, each timed from its own schedule.
func (b *bench) fleetMeters(f *fleet) (closed, scans, feeds *meter, load *fleetLoad) {
	load = &fleetLoad{f: f}
	for l := 0; l < b.nproc; l++ {
		load.lanes = append(load.lanes, &session{b: b, f: f, lane: l, url: f.urls[l%fleetSize]})
	}
	// Closed loop: nproc clients, each sending its next request when the
	// previous one returns; a repetition is closedUnit requests.
	closed = &meter{phase: "fleet", minReps: 3, unit: func(rep int64) error {
		ops := b.scanOps(b.w.closedUnit, b.seed*1_000_003+rep)
		var next atomic.Int64
		var wg sync.WaitGroup
		errs := make([]error, b.nproc)
		for c := 0; c < b.nproc; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= len(ops) {
						return
					}
					id := b.tr.begin("fleet.scan.closed", b.phase, rep)
					_, err := b.doScan(f, ops[i])
					b.tr.end(id)
					var wrong *wrongOutput
					if errors.As(err, &wrong) && errs[c] == nil {
						errs[c] = err
					}
				}
			}(c)
		}
		wg.Wait()
		return errors.Join(errs...)
	}}
	scans = &meter{phase: "fleet", minReps: openSegments, share: openShare, unit: func(rep int64) error {
		n := segmentOps(rep)
		ops := b.scanOps(n, b.seed+rep*7_000_003)
		resp := make([]int, n)
		lat, late, err := openLoop(n, b.nproc, b.w.scanRate, func(_, i int) error {
			id := b.tr.begin("fleet.scan", b.phase, rep)
			var err error
			resp[i], err = b.doScan(f, ops[i])
			b.tr.end(id)
			return err
		})
		if rep == 0 || err != nil {
			return err // the warm-up segment's samples are not kept
		}
		load.scanSegs = append(load.scanSegs, lat)
		load.late.ms = append(load.late.ms, late.ms...)
		for i, op := range ops {
			if f.owner(op.key) != f.urls[op.target] {
				load.forwarded++
			}
			load.respBytes += resp[i]
		}
		load.sent += n
		return nil
	}}
	feeds = &meter{phase: "fleet", minReps: openSegments, share: openShare, unit: func(rep int64) error {
		lat, late, err := openLoop(segmentOps(rep), b.nproc, b.w.feedRate, func(l, _ int) error {
			id := b.tr.begin("fleet.feed", b.phase, rep)
			err := load.lanes[l].feed()
			b.tr.end(id)
			return err
		})
		if rep == 0 || err != nil {
			return err
		}
		load.feedSegs = append(load.feedSegs, lat)
		load.late.ms = append(load.late.ms, late.ms...)
		return nil
	}}
	return closed, scans, feeds, load
}

// finish closes the load's sessions, verifying what they delivered, and
// reports the fleet's end-to-end metrics.
func (b *bench) fleetFinish(closed *meter, load *fleetLoad) error {
	for _, s := range load.lanes {
		if err := s.close(); err != nil {
			return err
		}
	}
	b.setE2E("req_per_s", "1/s", float64(b.w.closedUnit)/median(closed.reps))
	for _, p := range []struct {
		name string
		segs []latencies
		p    float64
	}{
		{"req_p50_ms", load.scanSegs, 50}, {"req_p90_ms", load.scanSegs, 90},
		{"feed_p50_ms", load.feedSegs, 50}, {"feed_p90_ms", load.feedSegs, 90},
	} {
		// Each segment's percentile, then the median over segments: a
		// stretch in which the shared machine stalls spoils one segment,
		// not the run's figure.
		var vs []float64
		for _, seg := range p.segs {
			v, err := seg.p(p.name, p.p)
			if err != nil {
				return err
			}
			vs = append(vs, v)
		}
		b.setE2E(p.name, "ms", median(vs))
	}
	return nil
}

// fleetLayers reports the load generator's lateness, the routing mix and
// reply sizes, and probes the inter-node hop and the replication endpoint.
func (b *bench) fleetLayers(load *fleetLoad) error {
	if v, ok := percentile(load.late.ms, 90); ok {
		b.setLayer("gen.late_ms_p90", "ms", v)
	}
	b.setLayer("cluster.forwarded_share", "ratio", float64(load.forwarded)/float64(load.sent))
	b.setLayer("cluster.resp_bytes_per_req", "B", float64(load.respBytes)/float64(load.sent))
	if err := b.probeHop(load.f); err != nil {
		return err
	}
	return b.probeReplicaPut(load.f)
}

// wrongOutput marks a correctness failure, as opposed to a failed
// operation: it stops the run.
type wrongOutput struct{ err error }

func (e *wrongOutput) Error() string { return e.err.Error() }
func (e *wrongOutput) Unwrap() error { return e.err }

func (b *bench) wrong(err error) error { return &wrongOutput{err: err} }

// fleetBodyRefs fixes the expected matches of every one-shot body: the
// software FindAll's, whose output the scan phase's warm-up checks against
// the oracle on the full inputs.
func (b *bench) fleetBodyRefs() {
	eng := b.svc.Engine()
	b.bodyRef = make([][]bvap.Match, len(b.w.bodies))
	for i, body := range b.w.bodies {
		b.bodyRef[i] = eng.FindAll(body)
	}
}

// fromWire converts wire-form matches for comparison with a reference.
func fromWire(ms []cluster.Match) []bvap.Match {
	out := make([]bvap.Match, len(ms))
	for i, m := range ms {
		out[i] = bvap.Match{Pattern: m.Pattern, End: m.End}
	}
	return out
}

// probeHop times the same bodies sent to their key's owner (served
// locally) and to a non-owner (forwarded once): the difference of the
// medians is the inter-node hop.
func (b *bench) probeHop(f *fleet) error {
	var local, fwd []float64
	for i := 0; i < 40; i++ {
		op := scanOp{body: i % len(b.w.bodies), key: "hop-" + strconv.Itoa(i)}
		owner := f.owner(op.key)
		for t, u := range f.urls {
			if u == owner {
				op.target = t
			}
		}
		for _, forwarded := range []bool{false, true} {
			o := op
			if forwarded {
				o.target = (op.target + 1) % fleetSize
			}
			id := b.tr.begin("cluster.hop_probe", b.phase, int64(i))
			t0 := time.Now()
			_, err := b.doScan(f, o)
			d := time.Since(t0).Seconds() * 1e3
			b.tr.end(id)
			if err != nil {
				return err
			}
			if forwarded {
				fwd = append(fwd, d)
			} else {
				local = append(local, d)
			}
		}
	}
	b.setLayer("cluster.hop_ms", "ms", median(fwd)-median(local))
	return nil
}

// probeReplicaPut times the replication endpoint through cluster.Client
// with a real session checkpoint as the record.
func (b *bench) probeReplicaPut(f *fleet) error {
	ss, err := b.svc.NewSession(&bvap.SessionConfig{CheckpointInterval: b.w.interval})
	if err != nil {
		return err
	}
	if err := ss.Feed(context.Background(), b.w.stream[:min(b.w.interval, len(b.w.stream))]); err != nil {
		return err
	}
	wire, err := ss.Checkpoint().MarshalBinary()
	ss.Close()
	if err != nil {
		return err
	}
	client := cluster.NewClient(cluster.ClientConfig{MaxAttempts: 1, AttemptTimeout: failedLatency,
		HTTPClient: f.hc})
	var ds []float64
	for i := 0; i < 50; i++ {
		rec := cluster.CheckpointRecord{SessionID: "replica-probe", Pos: int64(i + 1), PrevPos: int64(i),
			Origin: f.urls[0], Checkpoint: wire, Interval: b.w.interval}
		id := b.tr.begin("cluster.replica_put", b.phase, int64(i))
		t0 := time.Now()
		err := client.PostJSON(context.Background(), f.urls[1+i%(fleetSize-1)], "/cluster/checkpoint/put", rec, nil)
		d := time.Since(t0).Seconds() * 1e3
		b.tr.end(id)
		if err != nil {
			return err
		}
		ds = append(ds, d)
	}
	b.setLayer("cluster.replica_put_ms", "ms", median(ds))
	return nil
}
