package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"bvap"
	"bvap/internal/serve"
)

// testNode is one in-process cluster node: service + node surface + HTTP
// server.
type testNode struct {
	node *Node
	svc  *bvap.Service
	srv  *httptest.Server
}

func newTestNode(t *testing.T, id string, patterns []string, cfg *bvap.ServiceConfig) *testNode {
	t.Helper()
	svc, err := bvap.NewService(patterns, cfg)
	if err != nil {
		t.Fatalf("NewService(%s): %v", id, err)
	}
	n := NewNode(svc, NodeConfig{ID: id})
	srv := httptest.NewServer(n.Handler())
	t.Cleanup(func() {
		srv.Close()
		n.Close()
		svc.Close()
	})
	return &testNode{node: n, svc: svc, srv: srv}
}

func testClusterClient() *Client {
	return NewClient(ClientConfig{
		MaxAttempts:    3,
		AttemptTimeout: 10 * time.Second,
		Backoff:        serve.Backoff{Base: time.Millisecond, Jitter: -1},
	})
}

func TestCoordinatedPublishAllOrNothing(t *testing.T) {
	initial := []string{"ab{2}c"}
	var nodes []*testNode
	var peers []string
	for i := 0; i < 3; i++ {
		n := newTestNode(t, fmt.Sprintf("n%d", i), initial, nil)
		nodes = append(nodes, n)
		peers = append(peers, n.srv.URL)
	}
	coord := NewCoordinator(testClusterClient(), peers)

	// Healthy round: every node advances one generation, same fingerprint.
	gens, err := coord.Publish(context.Background(), "round-1", []string{"ab{2}c", "c{3}"})
	if err != nil {
		t.Fatalf("Publish: %v", err)
	}
	for _, n := range nodes {
		if got := n.svc.Generation(); got != 2 {
			t.Fatalf("node %s at generation %d after publish, want 2", n.node.cfg.ID, got)
		}
		if gens[n.srv.URL] != 2 {
			t.Fatalf("publish reported generation %d for %s", gens[n.srv.URL], n.srv.URL)
		}
	}
	fp := nodes[0].svc.Engine().Fingerprint()
	for _, n := range nodes[1:] {
		if n.svc.Engine().Fingerprint() != fp {
			t.Fatal("fleet serving different fingerprints after coordinated publish")
		}
	}

	// Failed round: a candidate that cannot compile anywhere is rejected in
	// prepare on every node, and NO node advances — rollback by
	// non-publication.
	_, err = coord.Publish(context.Background(), "round-2", []string{"((("})
	var pub *PublishError
	if !errors.As(err, &pub) || pub.Phase != "prepare" {
		t.Fatalf("bad-candidate publish = %v, want *PublishError{Phase: prepare}", err)
	}
	for _, n := range nodes {
		if got := n.svc.Generation(); got != 2 {
			t.Fatalf("node %s moved to generation %d after a failed round", n.node.cfg.ID, got)
		}
	}

	// Idempotent replay: re-running a committed ticket converges without
	// double-applying.
	if _, err := coord.Publish(context.Background(), "round-1", []string{"ab{2}c", "c{3}"}); err != nil {
		t.Fatalf("replaying committed round: %v", err)
	}
	for _, n := range nodes {
		if got := n.svc.Generation(); got != 2 {
			t.Fatalf("replayed commit advanced node %s to %d", n.node.cfg.ID, got)
		}
	}
}

func TestCoordinatedPublishAbortsWhenOneNodeFails(t *testing.T) {
	good := newTestNode(t, "good", []string{"ab{2}c"}, nil)
	// The bad node refuses every prepare.
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"disk full"}`, http.StatusInternalServerError)
	}))
	defer bad.Close()

	coord := NewCoordinator(testClusterClient(), []string{good.srv.URL, bad.URL})
	_, err := coord.Publish(context.Background(), "t1", []string{"c{3}"})
	var pub *PublishError
	if !errors.As(err, &pub) || pub.Phase != "prepare" {
		t.Fatalf("publish with one failing node = %v, want prepare-phase PublishError", err)
	}
	if _, ok := pub.Errs[bad.URL]; !ok {
		t.Fatalf("PublishError does not name the failing peer: %v", pub.Errs)
	}
	// The healthy node must NOT have published (two-phase property), and
	// its staged candidate must be gone (abort reached it).
	if got := good.svc.Generation(); got != 1 {
		t.Fatalf("healthy node advanced to generation %d though the round failed", got)
	}
	good.node.mu.Lock()
	staged := len(good.node.staged)
	good.node.mu.Unlock()
	if staged != 0 {
		t.Fatalf("%d staged tickets left on the healthy node after abort", staged)
	}
}

// TestRepublishOldSetAfterNewerPublish is the rollback scenario: publish
// A, publish B, then publish A again under A's original (deterministic)
// ticket. The committed ticket from the first round must not replay — the
// fleet has moved since — so the re-publish opens a fresh round and every
// node actually serves A again.
func TestRepublishOldSetAfterNewerPublish(t *testing.T) {
	setA := []string{"ab{2}c", "c{3}"}
	setB := []string{"zz{4}q"}
	var nodes []*testNode
	var peers []string
	for i := 0; i < 3; i++ {
		n := newTestNode(t, fmt.Sprintf("n%d", i), []string{"ab{2}c"}, nil)
		nodes = append(nodes, n)
		peers = append(peers, n.srv.URL)
	}
	coord := NewCoordinator(testClusterClient(), peers)
	ctx := context.Background()

	if _, err := coord.Publish(ctx, "ticket-A", setA); err != nil {
		t.Fatalf("publish A: %v", err)
	}
	fpA := nodes[0].svc.Engine().Fingerprint()
	if _, err := coord.Publish(ctx, "ticket-B", setB); err != nil {
		t.Fatalf("publish B: %v", err)
	}
	// Roll back: same set, same ticket as the first round.
	gens, err := coord.Publish(ctx, "ticket-A", setA)
	if err != nil {
		t.Fatalf("re-publish A: %v", err)
	}
	for _, n := range nodes {
		if got := n.svc.Generation(); got != 4 {
			t.Fatalf("node %s at generation %d after rollback, want 4 (fresh round, not a stale-ticket replay)", n.node.cfg.ID, got)
		}
		if gens[n.srv.URL] != 4 {
			t.Fatalf("rollback reported generation %d for %s, want 4", gens[n.srv.URL], n.srv.URL)
		}
		if got := n.svc.Engine().Fingerprint(); got != fpA {
			t.Fatalf("node %s serving fingerprint %016x after rollback, want A's %016x", n.node.cfg.ID, got, fpA)
		}
	}
}

// TestCommittedTicketDropsPreparedEngine checks the staged map does not
// pin compiled engines (or grow) across repeated coordinated reloads: a
// resolved ticket keeps only {committed, gen} and superseded tickets are
// swept at the next prepare.
func TestCommittedTicketDropsPreparedEngine(t *testing.T) {
	n := newTestNode(t, "m", []string{"ab{2}c"}, nil)
	coord := NewCoordinator(testClusterClient(), []string{n.srv.URL})
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		if _, err := coord.Publish(ctx, fmt.Sprintf("round-%d", i), []string{fmt.Sprintf("ab{%d}c", i+2)}); err != nil {
			t.Fatalf("publish round %d: %v", i, err)
		}
	}
	n.node.mu.Lock()
	defer n.node.mu.Unlock()
	if len(n.node.staged) > 1 {
		t.Fatalf("%d tickets retained after 8 rounds, want ≤ 1 (the current generation's)", len(n.node.staged))
	}
	for id, tk := range n.node.staged {
		if tk.prep != nil {
			t.Fatalf("committed ticket %s still holds its PreparedReload", id)
		}
	}
}

// TestConcurrentPrepareSameTicket hammers one ticket with concurrent
// prepares: every caller must get 200 with the winner's fingerprint (the
// loser path must not re-read the consumed request body), and exactly one
// candidate may stay staged.
func TestConcurrentPrepareSameTicket(t *testing.T) {
	n := newTestNode(t, "p", []string{"ab{2}c"}, nil)
	client := testClusterClient()
	ctx := context.Background()

	const workers = 8
	resps := make([]PrepareResponse, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = client.PostJSON(ctx, n.srv.URL, "/cluster/prepare",
				PrepareRequest{Ticket: "shared", Patterns: []string{"c{3}"}}, &resps[i])
		}(i)
	}
	wg.Wait()
	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatalf("concurrent prepare %d: %v", i, errs[i])
		}
		if resps[i].Fingerprint != resps[0].Fingerprint {
			t.Fatalf("prepare %d staged fingerprint %s, prepare 0 staged %s", i, resps[i].Fingerprint, resps[0].Fingerprint)
		}
	}
	n.node.mu.Lock()
	staged := len(n.node.staged)
	n.node.mu.Unlock()
	if staged != 1 {
		t.Fatalf("%d tickets staged after concurrent prepares of one ticket, want 1", staged)
	}
}

// TestConcurrentCommitSameTicket: concurrent commits of one prepared
// ticket must all succeed with the same generation — one publication, the
// rest replays — never a spurious stale refusal.
func TestConcurrentCommitSameTicket(t *testing.T) {
	n := newTestNode(t, "c", []string{"ab{2}c"}, nil)
	client := testClusterClient()
	ctx := context.Background()

	if err := client.PostJSON(ctx, n.srv.URL, "/cluster/prepare",
		PrepareRequest{Ticket: "t", Patterns: []string{"c{3}"}}, nil); err != nil {
		t.Fatalf("prepare: %v", err)
	}
	const workers = 8
	resps := make([]CommitResponse, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = client.PostJSON(ctx, n.srv.URL, "/cluster/commit",
				TicketRequest{Ticket: "t"}, &resps[i])
		}(i)
	}
	wg.Wait()
	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatalf("concurrent commit %d: %v", i, errs[i])
		}
		if resps[i].Generation != 2 {
			t.Fatalf("concurrent commit %d returned generation %d, want 2", i, resps[i].Generation)
		}
	}
	if got := n.svc.Generation(); got != 2 {
		t.Fatalf("node at generation %d after concurrent commits, want 2 (exactly one publication)", got)
	}
}

// TestDuplicateSessionOpenDoesNotLeak: the losing open must close its
// freshly opened session instead of abandoning the checked-out stream,
// and must not disturb the established one.
func TestDuplicateSessionOpenDoesNotLeak(t *testing.T) {
	n := newTestNode(t, "d", []string{"ab{2}c"}, nil)
	client := testClusterClient()
	ctx := context.Background()

	if err := client.PostJSON(ctx, n.srv.URL, "/cluster/session/open",
		SessionOpenRequest{SessionID: "dup"}, nil); err != nil {
		t.Fatalf("first open: %v", err)
	}
	if err := client.PostJSON(ctx, n.srv.URL, "/cluster/session/open",
		SessionOpenRequest{SessionID: "dup"}, nil); err == nil {
		t.Fatal("duplicate open succeeded, want refusal")
	}
	// The original session still works, and closing it frees the id.
	if err := client.PostJSON(ctx, n.srv.URL, "/cluster/session/feed",
		SessionFeedRequest{SessionID: "dup", Chunk: []byte("xabbcx")}, nil); err != nil {
		t.Fatalf("feed after duplicate open: %v", err)
	}
	if err := client.PostJSON(ctx, n.srv.URL, "/cluster/session/close",
		SessionRequest{SessionID: "dup"}, nil); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := client.PostJSON(ctx, n.srv.URL, "/cluster/session/open",
		SessionOpenRequest{SessionID: "dup"}, nil); err != nil {
		t.Fatalf("re-open after close: %v", err)
	}
}

func TestSessionMigratesBetweenNodes(t *testing.T) {
	patterns := []string{"ab{2}c"}
	a := newTestNode(t, "a", patterns, nil)
	b := newTestNode(t, "b", patterns, nil)
	client := testClusterClient()
	ctx := context.Background()

	input := bytes.Repeat([]byte("xabbcx"), 300) // 1800 bytes, matches at every "abbc"
	wantEngine := bvap.MustCompile(patterns)
	want := wantEngine.FindAll(input)

	const sid = "stream-42"
	var open SessionResponse
	if err := client.PostJSON(ctx, a.srv.URL, "/cluster/session/open",
		SessionOpenRequest{SessionID: sid, Interval: 256}, &open); err != nil {
		t.Fatalf("open: %v", err)
	}

	var got []Match
	// First half on node a.
	half := len(input) / 2
	var feed SessionResponse
	if err := client.PostJSON(ctx, a.srv.URL, "/cluster/session/feed",
		SessionFeedRequest{SessionID: sid, Chunk: input[:half]}, &feed); err != nil {
		t.Fatalf("feed on a: %v", err)
	}
	got = append(got, feed.Matches...)

	// Checkpoint on a, resume on b — the migration.
	var ck SessionResponse
	if err := client.PostJSON(ctx, a.srv.URL, "/cluster/session/checkpoint",
		SessionRequest{SessionID: sid}, &ck); err != nil {
		t.Fatalf("checkpoint on a: %v", err)
	}
	got = append(got, ck.Matches...)
	if ck.Pos != int64(half) {
		t.Fatalf("checkpoint pos = %d, want %d", ck.Pos, half)
	}
	if err := client.PostJSON(ctx, a.srv.URL, "/cluster/session/close",
		SessionRequest{SessionID: sid}, nil); err != nil {
		t.Fatalf("close on a: %v", err)
	}
	var res SessionResponse
	if err := client.PostJSON(ctx, b.srv.URL, "/cluster/session/resume",
		SessionResumeRequest{SessionID: sid, Checkpoint: ck.Checkpoint, Interval: 256}, &res); err != nil {
		t.Fatalf("resume on b: %v", err)
	}
	if res.Pos != int64(half) {
		t.Fatalf("resumed pos = %d, want %d", res.Pos, half)
	}

	// Second half on node b, then close to flush the tail.
	if err := client.PostJSON(ctx, b.srv.URL, "/cluster/session/feed",
		SessionFeedRequest{SessionID: sid, Chunk: input[half:]}, &feed); err != nil {
		t.Fatalf("feed on b: %v", err)
	}
	got = append(got, feed.Matches...)
	var cl SessionResponse
	if err := client.PostJSON(ctx, b.srv.URL, "/cluster/session/close",
		SessionRequest{SessionID: sid}, &cl); err != nil {
		t.Fatalf("close on b: %v", err)
	}
	got = append(got, cl.Matches...)

	if len(got) != len(want) {
		t.Fatalf("migrated session delivered %d matches, oracle has %d", len(got), len(want))
	}
	for i, m := range got {
		if m.Pattern != want[i].Pattern || m.End != want[i].End {
			t.Fatalf("match %d = %+v, oracle %+v — migration broke report identity", i, m, want[i])
		}
	}
}

func TestSessionResumeRejectsForeignFingerprint(t *testing.T) {
	a := newTestNode(t, "a", []string{"ab{2}c"}, nil)
	b := newTestNode(t, "b", []string{"zz{4}q"}, nil) // different pattern set
	client := testClusterClient()
	ctx := context.Background()

	var open SessionResponse
	if err := client.PostJSON(ctx, a.srv.URL, "/cluster/session/open",
		SessionOpenRequest{SessionID: "s", Interval: 64}, &open); err != nil {
		t.Fatalf("open: %v", err)
	}
	var ck SessionResponse
	if err := client.PostJSON(ctx, a.srv.URL, "/cluster/session/checkpoint",
		SessionRequest{SessionID: "s"}, &ck); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	err := client.PostJSON(ctx, b.srv.URL, "/cluster/session/resume",
		SessionResumeRequest{SessionID: "s", Checkpoint: ck.Checkpoint}, nil)
	var pe *PeerError
	if !errors.As(err, &pe) || pe.Status != http.StatusConflict {
		t.Fatalf("foreign-fingerprint resume = %v, want 409 PeerError", err)
	}
}

func TestNodeScanRoutesTenantQuota(t *testing.T) {
	n := newTestNode(t, "q", []string{"ab{2}c"}, &bvap.ServiceConfig{
		TenantQuotas: map[string]bvap.QuotaConfig{"limited": {RatePerSec: 0.001, Burst: 2}},
	})
	hc := n.srv.Client()
	// post scans "xabbcx" as header (the X-Bvap-Tenant header) and
	// bodyTenant (the request's JSON tenant field); either may be empty.
	post := func(header, bodyTenant string) int {
		body := `{"input":"eGFiYmN4"}`
		if bodyTenant != "" {
			body = `{"input":"eGFiYmN4","tenant":"` + bodyTenant + `"}`
		}
		req, _ := http.NewRequest(http.MethodPost, n.srv.URL+"/cluster/scan", bytes.NewReader([]byte(body)))
		if header != "" {
			req.Header.Set(TenantHeader, header)
		}
		resp, err := hc.Do(req)
		if err != nil {
			t.Fatalf("scan: %v", err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	if post("limited", "") != http.StatusOK || post("limited", "") != http.StatusOK {
		t.Fatal("limited tenant's burst refused")
	}
	if got := post("limited", ""); got != http.StatusTooManyRequests {
		t.Fatalf("over-quota scan returned %d, want 429", got)
	}
	if got := post("", "limited"); got != http.StatusTooManyRequests {
		t.Fatalf("over-quota scan naming its tenant in the body returned %d, want 429", got)
	}
	if got := post("other", "limited"); got != http.StatusOK {
		t.Fatalf("header tenant must take precedence over the body's; got %d", got)
	}
	for i := 0; i < 5; i++ {
		if got := post("other", ""); got != http.StatusOK {
			t.Fatalf("unmetered tenant refused with %d; quotas must be per tenant", got)
		}
	}
}
