package experiments

// The heal soak is the self-healing fleet's proof: N in-process bvapd
// nodes under gossip membership, M concurrent BVAP-S streams, a standby
// node joining mid-run, a coordinated publish of a new pattern set across
// the live fleet, and a node force-killed mid-stream — WITHOUT any
// driver-side migration. The driver never holds a wire checkpoint and
// never re-places a stream itself; it persists nothing but a position and
// a match log, and recovery is entirely
//
//	owner := GET /cluster/ring?key=id        (any live node)
//	POST owner /cluster/session/sync {id, have}
//
// and the fleet supplies the durable bytes from replicated checkpoint
// records (R-way chain replication at quorum), re-delivering the match
// delta past the driver's durable position. The counted claim: across a
// join (ownership hand-off), a publish and a kill (orphan adoption), every
// stream's delivered log equals the origin engine's uninterrupted FindAll,
// byte for byte, with zero checkpoint loss, and survivor membership
// converges (equal epochs, victim dead) within the probe-interval bound.
// The publish lands before the kill, so the adoption resumes a stream
// checkpointed under the origin generation on a node that already serves
// the next one.
//
// With -heal-inject-loss the replication factor drops to 1, so killing a
// stream's owner destroys the only durable record: the soak must then
// fail loudly (the driver's sync answers 404 checkpoint-loss), which CI
// pins as a non-zero exit — the failure detector's failure detector.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"sync"
	"time"

	"bvap"
	"bvap/internal/cluster"
	"bvap/internal/datasets"
	"bvap/internal/serve"
)

// HealSoakOptions parameterizes the self-healing soak. Zero values select
// a CI-smoke-sized run (a few seconds under -race).
type HealSoakOptions struct {
	Nodes           int    // initial fleet size (default 3)
	Streams         int    // concurrent sessions (default 6)
	Dataset         string // pattern source (default "Snort")
	Sample          int    // patterns sampled (default 12)
	InputLen        int    // per-stream corpus bytes (default 32 KiB)
	ChunkLen        int    // feed granularity (default 1500)
	CheckpointEvery int    // chunks between durable checkpoints (default 3)
	Interval        int    // session commit interval in symbols (default 1024)
	Kills           int    // forced node kills mid-stream (default 1)
	Joins           int    // standby nodes joining mid-stream (default 1)
	Replicas        int    // checkpoint replication factor R (default 2)
	InjectLoss      bool   // force R=1 so a kill loses checkpoints (must fail)

	ProbeInterval  time.Duration // membership probe cadence (default 20ms)
	SuspectTimeout time.Duration // suspect → dead (default 3× probe)
}

func (o *HealSoakOptions) fill() {
	if o.Nodes == 0 {
		o.Nodes = 3
	}
	if o.Streams == 0 {
		o.Streams = 6
	}
	if o.Dataset == "" {
		o.Dataset = "Snort"
	}
	if o.Sample == 0 {
		o.Sample = 12
	}
	if o.InputLen == 0 {
		o.InputLen = 32 << 10
	}
	if o.ChunkLen == 0 {
		o.ChunkLen = 1500
	}
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = 3
	}
	if o.Interval == 0 {
		o.Interval = 1024
	}
	if o.Kills == 0 {
		o.Kills = 1
	}
	if o.Kills > o.Nodes-1 {
		o.Kills = o.Nodes - 1
	}
	if o.Joins == 0 {
		o.Joins = 1
	}
	if o.Joins > 0 && o.Kills > 0 && o.Streams < 2 {
		o.Streams = 2 // the join and the kill each pin their own stream
	}
	if o.Replicas == 0 {
		o.Replicas = 2
	}
	if o.InjectLoss {
		o.Replicas = 1
	}
	if o.ProbeInterval == 0 {
		o.ProbeInterval = 20 * time.Millisecond
	}
	if o.SuspectTimeout == 0 {
		o.SuspectTimeout = 3 * o.ProbeInterval
	}
}

// HealSoakResult is the experiment's structured output.
type HealSoakResult struct {
	Nodes    int `json:"nodes"`
	Joins    int `json:"joins"`
	Kills    int `json:"kills"`
	Streams  int `json:"streams"`
	Patterns int `json:"patterns"`
	Replicas int `json:"replicas"`

	// Exactly-once correctness across the join and the kill (counted).
	StreamSymbols    uint64 `json:"stream_symbols"`
	StreamReports    uint64 `json:"stream_reports"`
	ReferenceReports uint64 `json:"reference_reports"`
	ReportsExact     bool   `json:"reports_exact"`

	// Self-healing movements, summed over survivors' NodeHealth.
	Handoffs   uint64 `json:"handoffs"`
	Adoptions  uint64 `json:"adoptions"`
	Recoveries int    `json:"recoveries"` // driver-side sync recoveries

	// Coordinated publishes committed across the live fleet mid-stream.
	PublishesOK int `json:"publishes_ok"`

	// Membership convergence after the kill: survivors agree on epoch
	// with the victim dead, within BoundMillis.
	ConvergeMillis int64  `json:"converge_millis"`
	BoundMillis    int64  `json:"bound_millis"`
	FinalEpoch     uint64 `json:"final_epoch"`

	// Hygiene on survivors after every stream closed.
	SessionsLeft int   `json:"sessions_left"`
	StreamsOut   int64 `json:"streams_out"`
}

// healSentinel is planted in the served set so every corpus is guaranteed
// matches that cross chunk and checkpoint boundaries.
const healSentinel = "hlsoak{2}z"

// healMember is one in-process fleet member: service + gossip membership
// + node surface, with the membership probe loop and the rebalancer
// running, exactly as bvapd wires them.
type healMember struct {
	id     string
	svc    *bvap.Service
	node   *cluster.Node
	mem    *cluster.Membership
	srv    *httptest.Server
	origin *bvap.Engine
	cancel context.CancelFunc
}

// healSoakFleet tracks liveness for the driver side (which node to ask
// for ring views) and the chaos schedule (who may be killed).
type healSoakFleet struct {
	mu      sync.RWMutex
	live    map[string]*healMember // by base URL
	all     []*healMember
	drv     *cluster.Client // driver client: one attempt, no retries
	replica int
	// deadHandoffs/deadAdoptions snapshot a victim's lifetime counters at
	// kill time — the node that performed a hand-off may itself be killed
	// later, and its movements still count.
	deadHandoffs, deadAdoptions uint64
}

func (f *healSoakFleet) liveURLs() []string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	urls := make([]string, 0, len(f.live))
	for u := range f.live {
		urls = append(urls, u)
	}
	return urls
}

func (f *healSoakFleet) liveMembers() []*healMember {
	f.mu.RLock()
	defer f.mu.RUnlock()
	ms := make([]*healMember, 0, len(f.live))
	for _, m := range f.live {
		ms = append(ms, m)
	}
	return ms
}

// kill severs a member without ceremony: connections cut, server down,
// loops cancelled. The ring is NOT touched — the membership layer must
// notice on its own; that is the point of the experiment.
func (f *healSoakFleet) kill(url string) *healMember {
	f.mu.Lock()
	m := f.live[url]
	delete(f.live, url)
	if m != nil {
		h := m.node.Health()
		f.deadHandoffs += h.Handoffs
		f.deadAdoptions += h.Adoptions
	}
	f.mu.Unlock()
	if m == nil {
		return nil
	}
	m.srv.CloseClientConnections()
	m.srv.Close()
	m.cancel()
	m.node.Close()
	m.svc.Close()
	return m
}

func newHealMember(i int, patterns []string, opt HealSoakOptions) (*healMember, error) {
	svc, err := bvap.NewService(patterns, nil)
	if err != nil {
		return nil, fmt.Errorf("heal soak: node %d compile: %v", i, err)
	}
	var node *cluster.Node
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		node.Handler().ServeHTTP(w, r)
	}))
	client := cluster.NewClient(cluster.ClientConfig{
		MaxAttempts:    1,
		AttemptTimeout: 10 * time.Second,
		Backoff:        serve.Backoff{Base: 2 * time.Millisecond, Jitter: -1},
		Breaker:        serve.BreakerConfig{Threshold: 1 << 20},
	})
	mem := cluster.NewMembership(cluster.MembershipConfig{
		Self:           srv.URL,
		ProbeInterval:  opt.ProbeInterval,
		SuspectTimeout: opt.SuspectTimeout,
		Client:         client,
	})
	client.SetMembership(mem)
	node = cluster.NewNode(svc, cluster.NodeConfig{
		ID:                fmt.Sprintf("heal-%d", i),
		Membership:        mem,
		Client:            client,
		Replicas:          opt.Replicas,
		RebalanceInterval: 50 * time.Millisecond,
	})
	mem.SetOnChange(node.WakeRebalance)
	ctx, cancel := context.WithCancel(context.Background())
	go mem.Run(ctx)
	go node.RunRebalancer(ctx)
	return &healMember{
		id: fmt.Sprintf("heal-%d", i), svc: svc, node: node, mem: mem,
		srv: srv, origin: svc.Engine(), cancel: cancel,
	}, nil
}

// waitHealConverge polls the live members until every one's ring holds
// exactly want with equal epochs, returning the converged epoch.
func waitHealConverge(live []*healMember, want []string, deadline time.Duration) (uint64, error) {
	limit := time.Now().Add(deadline)
	for {
		ok := true
		var epoch uint64
		for _, m := range live {
			set := m.mem.Ring().Nodes()
			if len(set) != len(want) {
				ok = false
				break
			}
			for _, u := range want {
				if st, known := m.mem.State(u); !known || st != cluster.StateAlive {
					ok = false
				}
			}
			if epoch == 0 {
				epoch = m.mem.Epoch()
			} else if m.mem.Epoch() != epoch {
				ok = false
			}
			if !ok {
				break
			}
		}
		if ok {
			return epoch, nil
		}
		if time.Now().After(limit) {
			views := make([]string, 0, len(live))
			for _, m := range live {
				views = append(views, fmt.Sprintf("%s: ring=%v epoch=%d", m.srv.URL, m.mem.Ring().Nodes(), m.mem.Epoch()))
			}
			return 0, fmt.Errorf("membership did not converge to %d members within %v: %v", len(want), deadline, views)
		}
		time.Sleep(time.Millisecond)
	}
}

// HealSoak runs the self-healing soak and returns the structured result
// plus a BENCH-schema report (the correctness cell is counted; the
// membership cell is informational).
func HealSoak(opt HealSoakOptions) (*HealSoakResult, *BenchReport, error) {
	opt.fill()
	prof, err := datasets.ByName(opt.Dataset)
	if err != nil {
		return nil, nil, err
	}
	patterns := append([]string{healSentinel}, prof.Sample(opt.Sample)...)
	res := &HealSoakResult{
		Nodes: opt.Nodes, Joins: opt.Joins, Kills: opt.Kills,
		Streams: opt.Streams, Patterns: len(patterns), Replicas: opt.Replicas,
	}

	fleet := &healSoakFleet{
		live:    map[string]*healMember{},
		replica: opt.Replicas,
		drv: cluster.NewClient(cluster.ClientConfig{
			MaxAttempts:    1,
			AttemptTimeout: 10 * time.Second,
			Breaker:        serve.BreakerConfig{Threshold: 1 << 20},
		}),
	}
	// Bring up the initial fleet plus the standby joiners; standbys serve
	// and gossip with themselves only until the chaos schedule joins them.
	for i := 0; i < opt.Nodes+opt.Joins; i++ {
		m, err := newHealMember(i, patterns, opt)
		if err != nil {
			return nil, nil, err
		}
		fleet.all = append(fleet.all, m)
		fleet.mu.Lock()
		if i < opt.Nodes {
			fleet.live[m.srv.URL] = m
		}
		fleet.mu.Unlock()
	}
	defer func() {
		for _, m := range fleet.all {
			fleet.kill(m.srv.URL) // idempotent; standbys keyed in on join
			m.srv.Close()
			m.cancel()
			m.svc.Close()
		}
	}()
	initial := fleet.all[:opt.Nodes]
	standby := fleet.all[opt.Nodes:]
	for _, m := range initial[1:] {
		if err := m.mem.Join(context.Background(), []string{initial[0].srv.URL}); err != nil {
			return nil, nil, fmt.Errorf("heal soak: bring-up join: %w", err)
		}
	}
	initialURLs := make([]string, len(initial))
	for i, m := range initial {
		initialURLs[i] = m.srv.URL
	}
	if _, err := waitHealConverge(initial, initialURLs, 15*time.Second); err != nil {
		return nil, nil, fmt.Errorf("heal soak: bring-up: %w", err)
	}

	// Stream ids: pick the first Streams candidates, then make sure at
	// least one id's ownership MOVES to the first standby when it joins —
	// that stream forces a hand-off rather than leaving it to vnode luck.
	ids := make([]string, 0, opt.Streams)
	for i := 0; len(ids) < opt.Streams; i++ {
		ids = append(ids, fmt.Sprintf("heal-stream-%d", i))
	}
	if len(standby) > 0 {
		ringInit, ringFull := cluster.NewRing(0), cluster.NewRing(0)
		for _, m := range initial {
			ringInit.Add(m.srv.URL)
			ringFull.Add(m.srv.URL)
		}
		for _, m := range standby {
			ringFull.Add(m.srv.URL)
		}
		moves := func(id string) bool {
			return ringFull.Owner(id) == standby[0].srv.URL && ringInit.Owner(id) != standby[0].srv.URL
		}
		// The kill is pinned to ids[0]: a join-stable owner guarantees that
		// node holds the session AND heads its replication chain for the
		// stream's whole life, so with R=1 killing it provably destroys
		// the only durable record.
		stable := func(id string) bool {
			return ringFull.Owner(id) == ringInit.Owner(id)
		}
		if !stable(ids[0]) {
			for i := 0; i < 100000; i++ {
				if cand := fmt.Sprintf("heal-stream-s%d", i); stable(cand) {
					ids[0] = cand
					break
				}
			}
		}
		if !moves(ids[len(ids)-1]) {
			found := false
			for i := 0; !found && i < 100000; i++ {
				if cand := fmt.Sprintf("heal-stream-x%d", i); moves(cand) {
					ids[len(ids)-1] = cand
					found = true
				}
			}
			if !found {
				return nil, nil, errors.New("heal soak: no candidate key moves to the joining node")
			}
		}
	}

	// Per-stream corpora and oracles, as in the cluster soak: rotations
	// of one generated corpus against the origin engine's FindAll.
	base := prof.Input(opt.InputLen, patterns)
	origin := initial[0].origin
	corpora := make([][]byte, opt.Streams)
	oracles := make([][]bvap.Match, opt.Streams)
	for i := range corpora {
		rot := (i * 1013) % len(base)
		corpora[i] = append(append([]byte{}, base[rot:]...), base[:rot]...)
		oracles[i] = origin.FindAll(corpora[i])
		res.StreamSymbols += uint64(len(corpora[i]))
		res.ReferenceReports += uint64(len(oracles[i]))
	}

	if err := runHealStreams(opt, fleet, standby, patterns, ids, corpora, oracles, res); err != nil {
		return nil, nil, err
	}

	// Hygiene: every stream closed, so survivors must hold no sessions
	// and no checked-out pooled streams.
	for _, m := range fleet.liveMembers() {
		h := m.node.Health()
		res.SessionsLeft += h.Sessions
		res.Handoffs += h.Handoffs
		res.Adoptions += h.Adoptions
		res.StreamsOut += m.origin.StreamsOut()
		if cur := m.svc.Engine(); cur != m.origin {
			res.StreamsOut += cur.StreamsOut()
		}
		if h.Epoch > res.FinalEpoch {
			res.FinalEpoch = h.Epoch
		}
	}
	fleet.mu.RLock()
	res.Handoffs += fleet.deadHandoffs
	res.Adoptions += fleet.deadAdoptions
	fleet.mu.RUnlock()
	if res.SessionsLeft != 0 {
		return nil, nil, fmt.Errorf("heal soak: %d sessions still live on survivors after close", res.SessionsLeft)
	}
	if res.StreamsOut != 0 {
		return nil, nil, fmt.Errorf("heal soak: %d pooled streams still checked out on survivors", res.StreamsOut)
	}
	if opt.Joins > 0 && res.Handoffs == 0 {
		return nil, nil, errors.New("heal soak: a join moved ownership but no session was handed off")
	}
	if opt.Kills > 0 && res.Recoveries == 0 {
		return nil, nil, errors.New("heal soak: a node was killed but no driver ran sync recovery")
	}
	return res, healBench(opt, res), nil
}

// healGate is a driver↔chaos rendezvous pinning one chaos event to one
// mid-flight stream: the gated driver parks right after its first durable
// checkpoint (closing ready) and resumes only once the event — join plus
// hand-off, or kill plus convergence — has actually happened (done). This
// is what makes the soak deterministic rather than a race between fast
// streams and a progress-sampling chaos loop.
type healGate struct {
	readyOnce, doneOnce sync.Once
	ready, done         chan struct{}
}

func newHealGate() *healGate {
	return &healGate{ready: make(chan struct{}), done: make(chan struct{})}
}

// arrive parks the driver until the gated event completes.
func (g *healGate) arrive() {
	g.readyOnce.Do(func() { close(g.ready) })
	<-g.done
}

func (g *healGate) release() { g.doneOnce.Do(func() { close(g.done) }) }

// runHealStreams drives all streams while the chaos goroutine joins the
// standby (pinned to the stream whose ownership moves), publishes a new
// pattern set to the live fleet, and kills the owner of the kill-pinned
// stream mid-flight.
func runHealStreams(opt HealSoakOptions, fleet *healSoakFleet, standby []*healMember, patterns []string, ids []string, corpora [][]byte, oracles [][]bvap.Match, res *HealSoakResult) error {
	type streamOut struct {
		log        []cluster.Match
		recoveries int
		err        error
	}
	outs := make([]streamOut, len(ids))

	var progressMu sync.Mutex
	addProgress := func(int) {}

	// Gates: the engineered moving stream (last id) pins the join; stream
	// 0 pins the kill — its owner at kill time provably holds a live
	// mid-flight session with durable progress.
	var moveGate, killGate *healGate
	if opt.Joins > 0 {
		moveGate = newHealGate()
	}
	if opt.Kills > 0 {
		killGate = newHealGate()
	}
	gates := make([]*healGate, len(ids))
	if killGate != nil {
		gates[0] = killGate
	}
	if moveGate != nil {
		gates[len(ids)-1] = moveGate
	}

	sumHandoffs := func() uint64 {
		var total uint64
		for _, m := range fleet.liveMembers() {
			total += m.node.Health().Handoffs
		}
		return total
	}

	stop := make(chan struct{})
	chaosErr := make(chan error, 1)
	go func() {
		defer close(chaosErr)
		defer func() {
			if moveGate != nil {
				moveGate.release()
			}
			if killGate != nil {
				killGate.release()
			}
		}()
		for j := 0; j < opt.Joins; j++ {
			if j == 0 && moveGate != nil {
				select { // wait for the pinned stream's durable checkpoint
				case <-moveGate.ready:
				case <-stop:
				}
			}
			m := standby[j]
			if err := m.mem.Join(context.Background(), fleet.liveURLs()); err != nil {
				chaosErr <- fmt.Errorf("heal soak: standby join: %w", err)
				return
			}
			fleet.mu.Lock()
			fleet.live[m.srv.URL] = m
			fleet.mu.Unlock()
			if _, err := waitHealConverge(fleet.liveMembers(), fleet.liveURLs(), 15*time.Second); err != nil {
				chaosErr <- fmt.Errorf("heal soak: post-join: %w", err)
				return
			}
			if j == 0 && moveGate != nil {
				// The pinned stream's session is parked on its old owner;
				// the epoch change must hand it off before the driver may
				// proceed (and discover the move through a 404).
				limit := time.Now().Add(15 * time.Second)
				for sumHandoffs() == 0 {
					if time.Now().After(limit) {
						chaosErr <- errors.New("heal soak: ownership moved but no hand-off within 15s")
						return
					}
					time.Sleep(time.Millisecond)
				}
				moveGate.release()
			}
			// One synchronous scan per survivor before any kill: the join
			// changed failover chains, and records replicated to the OLD
			// chain must reach the new one (repairCycle) or a kill inside
			// that window could destroy the only reachable copy. The
			// background rebalancers do this too — forcing it here makes
			// the kill phase deterministic instead of racing them.
			for _, m := range fleet.liveMembers() {
				m.node.Rebalance(context.Background())
			}
		}
		// A coordinated publish across the live fleet: the base set plus one
		// pattern the corpora never match, so in-flight sessions keep their
		// origin engine, sessions opened from here on run the new
		// generation, and every delivered log must stay byte-exact.
		coord := cluster.NewCoordinator(fleet.drv, nil)
		pats := append(append([]string{}, patterns...), "hlgen1y{3}")
		if _, err := coord.PublishTo(context.Background(), fleet.liveURLs(), "heal-publish-1", pats); err != nil {
			chaosErr <- fmt.Errorf("heal soak: publish: %w", err)
			return
		}
		progressMu.Lock()
		res.PublishesOK++
		progressMu.Unlock()
		for k := 0; k < opt.Kills; k++ {
			if k == 0 && killGate != nil {
				select {
				case <-killGate.ready:
				case <-stop:
				}
			}
			live := fleet.liveMembers()
			if len(live) <= 1 {
				continue
			}
			// Kill the CURRENT owner of the pinned stream: it holds the
			// stream's live session and — under -heal-inject-loss (R=1) —
			// its only durable record.
			victim := live[0].mem.Ring().Owner(ids[0])
			fleet.mu.RLock()
			_, ok := fleet.live[victim]
			fleet.mu.RUnlock()
			if !ok {
				victim = live[0].srv.URL
			}
			start := time.Now()
			fleet.kill(victim)
			bound := opt.SuspectTimeout + 20*opt.ProbeInterval + 3*time.Second
			epoch, err := waitHealConverge(fleet.liveMembers(), fleet.liveURLs(), bound)
			if err != nil {
				chaosErr <- fmt.Errorf("heal soak: post-kill: %w", err)
				return
			}
			progressMu.Lock()
			res.ConvergeMillis = time.Since(start).Milliseconds()
			res.BoundMillis = bound.Milliseconds()
			res.FinalEpoch = epoch
			progressMu.Unlock()
			if k == 0 && killGate != nil {
				killGate.release()
			}
		}
	}()

	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			log, rec, err := driveHealStream(opt, fleet, ids[i], corpora[i], addProgress, gates[i])
			outs[i] = streamOut{log: log, recoveries: rec, err: err}
		}(i)
	}
	wg.Wait()
	close(stop)
	if err := <-chaosErr; err != nil {
		return err
	}

	res.ReportsExact = true
	for i, out := range outs {
		if out.err != nil {
			return fmt.Errorf("heal soak: stream %s: %w", ids[i], out.err)
		}
		res.Recoveries += out.recoveries
		res.StreamReports += uint64(len(out.log))
		want := oracles[i]
		if len(out.log) != len(want) {
			res.ReportsExact = false
			return fmt.Errorf("heal soak: stream %s delivered %d reports, oracle %d — exactly-once broken",
				ids[i], len(out.log), len(want))
		}
		for j, m := range out.log {
			if m.Pattern != want[j].Pattern || m.End != want[j].End {
				res.ReportsExact = false
				return fmt.Errorf("heal soak: stream %s report %d = %+v, oracle %+v — replay diverged",
					ids[i], j, m, want[j])
			}
		}
	}
	return nil
}

// errHealTerminal wraps driver failures that must end the stream (and the
// soak): checkpoint loss (404 on sync with durable progress) and delivery
// gaps (409) are protocol violations, not transients.
var errHealTerminal = errors.New("terminal recovery failure")

// driveHealStream feeds one corpus with NO driver-side migration: the
// driver persists only its durable position and match log; every failure
// — node death, hand-off, lost checkpoint ack — is recovered through the
// uniform ring-resolve + session-sync path, which re-delivers the match
// delta from the fleet's replicated checkpoint records. A non-nil gate
// parks the stream after its first durable checkpoint until the chaos
// event pinned to it has happened.
func driveHealStream(opt HealSoakOptions, fleet *healSoakFleet, id string, corpus []byte, addProgress func(int), gate *healGate) ([]cluster.Match, int, error) {
	ctx := context.Background()
	var (
		log        []cluster.Match
		durableLen int
		durablePos int64
		owner      string
		recoveries int
	)

	// recoverable classifies a failed call: transport-level errors and
	// 404/503 answers all route through sync (the node may be dead, the
	// session re-placed, or the peer not yet the owner); anything else is
	// a real protocol error.
	recoverable := func(err error) bool {
		var pe *cluster.PeerError
		if !errors.As(err, &pe) {
			return false
		}
		return pe.Status == 0 || pe.Status == http.StatusNotFound || pe.Status == http.StatusServiceUnavailable
	}

	// sync lands the session at its durable checkpoint on the current
	// ring owner and truncates + re-extends the log to match. It is also
	// how the stream STARTS (have=0 opens a fresh session), making every
	// driver path uniform.
	sync := func() error {
		limit := time.Now().Add(30 * time.Second)
		for attempt := 0; ; attempt++ {
			if time.Now().After(limit) {
				return fmt.Errorf("no owner answered sync for %s within 30s", id)
			}
			urls := fleet.liveURLs()
			if len(urls) == 0 {
				return errors.New("fleet has no live nodes")
			}
			base := urls[attempt%len(urls)]
			var view cluster.RingView
			if err := fleet.drv.GetJSON(ctx, base, "/cluster/ring?key="+url.QueryEscape(id), &view); err != nil || view.Owner == "" {
				time.Sleep(2 * time.Millisecond)
				continue
			}
			var sy cluster.SessionResponse
			err := fleet.drv.PostJSON(ctx, view.Owner, "/cluster/session/sync",
				cluster.SessionSyncRequest{SessionID: id, Have: durablePos, Interval: opt.Interval}, &sy)
			if err == nil {
				owner = view.Owner
				log = append(log[:durableLen], sy.Matches...)
				durablePos = sy.Pos
				durableLen = len(log)
				return nil
			}
			var pe *cluster.PeerError
			if errors.As(err, &pe) {
				switch pe.Status {
				case http.StatusNotFound:
					return fmt.Errorf("%w: checkpoint lost for %s at %d: %v", errHealTerminal, id, durablePos, err)
				case http.StatusConflict:
					return fmt.Errorf("%w: delivery gap for %s: %v", errHealTerminal, id, err)
				}
			}
			// Transport error or 503 (owner still converging): retry.
			time.Sleep(2 * time.Millisecond)
		}
	}

	if err := sync(); err != nil { // opens the session (have = 0)
		return nil, recoveries, err
	}

	pos := int(durablePos)
	sinceCk := 0
	for pos < len(corpus) {
		end := pos + opt.ChunkLen
		if end > len(corpus) {
			end = len(corpus)
		}
		var resp cluster.SessionResponse
		if err := fleet.drv.PostJSON(ctx, owner, "/cluster/session/feed",
			cluster.SessionFeedRequest{SessionID: id, Chunk: corpus[pos:end]}, &resp); err != nil {
			if !recoverable(err) {
				return nil, recoveries, err
			}
			recoveries++
			if err := sync(); err != nil {
				return nil, recoveries, err
			}
			pos, sinceCk = int(durablePos), 0
			continue
		}
		log = append(log, resp.Matches...)
		addProgress(end - pos)
		pos = end
		sinceCk++
		if sinceCk >= opt.CheckpointEvery || pos == len(corpus) {
			var ck cluster.SessionResponse
			if err := fleet.drv.PostJSON(ctx, owner, "/cluster/session/checkpoint",
				cluster.SessionRequest{SessionID: id}, &ck); err != nil {
				if !recoverable(err) {
					return nil, recoveries, err
				}
				recoveries++
				if err := sync(); err != nil {
					return nil, recoveries, err
				}
				pos, sinceCk = int(durablePos), 0
				continue
			}
			log = append(log, ck.Matches...)
			durablePos = ck.Pos
			durableLen = len(log)
			sinceCk = 0
			if gate != nil {
				gate.arrive() // park until the pinned chaos event lands
				gate = nil
			}
		}
	}

	// Close on the session's owner; a close lost to a re-placement or a
	// kill syncs (restoring a live session on the owner) and retries, so
	// no survivor is left holding a live session or adoptable records.
	for attempt := 0; attempt < 10; attempt++ {
		var cl cluster.SessionResponse
		err := fleet.drv.PostJSON(ctx, owner, "/cluster/session/close",
			cluster.SessionRequest{SessionID: id}, &cl)
		if err == nil {
			return append(log, cl.Matches...), recoveries, nil
		}
		if !recoverable(err) {
			return nil, recoveries, err
		}
		recoveries++
		if err := sync(); err != nil {
			return nil, recoveries, err
		}
	}
	return nil, recoveries, fmt.Errorf("stream %s could not close on any owner", id)
}

// healBench shapes the soak as a BENCH-schema report: the correctness
// cell's symbols and reports are counted; the membership cell carries
// informational convergence and movement counters.
func healBench(opt HealSoakOptions, res *HealSoakResult) *BenchReport {
	rep := &BenchReport{
		SchemaVersion: BenchSchemaVersion,
		Created:       time.Now().UTC().Format(time.RFC3339),
		Environment: BenchEnvironment{
			GoVersion: runtime.Version(),
			GOOS:      runtime.GOOS,
			GOARCH:    runtime.GOARCH,
			NumCPU:    runtime.NumCPU(),
		},
		Params: BenchParams{
			BVSize: perfBVSize, UnfoldTh: perfUnfoldTh,
			Sample: opt.Sample, InputLen: opt.InputLen,
			Datasets: []string{opt.Dataset},
			Archs:    []string{"heal-correctness", "heal-membership"},
		},
	}
	rep.Cells = append(rep.Cells, BenchCell{
		Dataset:  opt.Dataset,
		Arch:     "heal-correctness",
		Patterns: res.Patterns,
		Symbols:  res.StreamSymbols,
		Matches:  res.StreamReports,
		Stalls: map[string]uint64{
			"nodes":      uint64(res.Nodes),
			"streams":    uint64(res.Streams),
			"kills":      uint64(res.Kills),
			"joins":      uint64(res.Joins),
			"recoveries": uint64(res.Recoveries),
		},
	})
	rep.Cells = append(rep.Cells, BenchCell{
		Dataset:  opt.Dataset,
		Arch:     "heal-membership",
		Patterns: res.Patterns,
		Stalls: map[string]uint64{
			"replicas":     uint64(res.Replicas),
			"handoffs":     res.Handoffs,
			"publishes_ok": uint64(res.PublishesOK),
			"adoptions":    res.Adoptions,
			"epoch":        res.FinalEpoch,
			"converge_ms":  uint64(res.ConvergeMillis),
			"bound_ms":     uint64(res.BoundMillis),
		},
	})
	rep.PeakRSSBytes = peakRSSBytes()
	return rep
}

// RenderHealSoak prints the self-healing soak summary.
func RenderHealSoak(w io.Writer, res *HealSoakResult) {
	fmt.Fprintf(w, "Heal soak — %d nodes (+%d join, %d kill), %d streams, %d patterns, R=%d\n",
		res.Nodes, res.Joins, res.Kills, res.Streams, res.Patterns, res.Replicas)
	fmt.Fprintf(w, "  exactly-once: %d symbols, %d reports (%d reference), exact=%v with NO driver-side migration\n",
		res.StreamSymbols, res.StreamReports, res.ReferenceReports, res.ReportsExact)
	fmt.Fprintf(w, "  self-healing: %d handoffs, %d adoptions, %d driver sync recoveries, %d coordinated publishes\n",
		res.Handoffs, res.Adoptions, res.Recoveries, res.PublishesOK)
	fmt.Fprintf(w, "  membership:   converged in %dms (bound %dms), final epoch %d\n",
		res.ConvergeMillis, res.BoundMillis, res.FinalEpoch)
	fmt.Fprintf(w, "  hygiene:      %d sessions left, %d pooled streams checked out on survivors\n",
		res.SessionsLeft, res.StreamsOut)
}
