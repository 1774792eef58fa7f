package main

import (
	"fmt"
	"math/rand"

	"bvap/internal/datasets"
	"bvap/internal/regex"
	gen "bvap/internal/workload"
)

// workload is one generated set of inputs. README.md gives each workload's
// rationale and the sizing measurements behind its constants.
type workload struct {
	name     string
	patterns []string
	// inputs are the scan units of the sequential and parallel phases.
	inputs [][]byte
	// stream is what sessions are fed, in-process and through the fleet;
	// the simulator runs over its first simBytes.
	stream []byte
	// bodies are the one-shot fleet request bodies, used in turn.
	bodies [][]byte
	// chunk is the session feed size; interval the checkpoint interval.
	chunk, interval int
	simBytes        int
	// unitBytes, when set, limits the timed units of the sequential scan,
	// in-process session and simulator phases to the stream's first
	// unitBytes, so that a slow workload still repeats them often enough
	// for a steady median; the parallel scan, the simulated energy and
	// throughput, and the fleet keep the whole inputs.
	unitBytes int
	// oracle names the independent matcher the full inputs are checked
	// against ("swmatch" or "nca"); swmatchBytes, when set, limits the
	// swmatch cross-check of that oracle to a prefix of the stream.
	oracle       string
	swmatchBytes int
	goRegexp     bool
	// scanRate and feedRate are the open-loop rates (operations per
	// second), fixed at a tenth to a third of the capacity measured when
	// the benchmark was written, so a faster program shows as lower latency
	// at the same rate. Nearer capacity, a slow stretch of the two shared
	// CPUs queued requests and p90 varied by half or more between runs.
	scanRate, feedRate float64
	// closedUnit is the number of one-shot requests in one closed-loop
	// repetition.
	closedUnit int
}

var workloadNames = []string{"ids-snort", "logs-dense", "serve-chatty"}

// logsPatterns are the six regexes of the corpus-logs group in
// testdata/rebar/corpus-logs.toml (TestLogsPatternsMatchRebarGroup keeps
// them in step).
var logsPatterns = []string{
	`req=[0-9a-f]{16}`,
	`status=5[0-9]{2}`,
	`(WARN|ERROR)`,
	`2024-01-[0-9]{2}T[0-9]{2}`,
	`dur=[0-9]{3,4}ms`,
	`[a-z]{6,10}`,
}

// buildWorkload generates the named workload's inputs from seed. tiny
// shrinks every size for the smoke test.
func buildWorkload(name string, seed int64, tiny bool) (*workload, error) {
	scale := func(n int) int {
		if tiny {
			return max(n/16, 1)
		}
		return n
	}
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	switch name {
	case "ids-snort":
		prof, err := datasets.ByName("Snort")
		if err != nil {
			return nil, err
		}
		// The profile's canonical 200-pattern prefix: the seed varies the
		// traffic, not the rule set (see README.md, "Seeds").
		pats := prof.Generate(scale(200))
		corpus := plantedCorpus(seed, scale(256<<10), prof.Alphabet, pats, prof.MatchRate)
		return &workload{
			name: name, patterns: pats,
			inputs: [][]byte{corpus}, stream: corpus,
			bodies: bodiesFrom(r, corpus, 32, 2<<10),
			chunk:  1 << 10, interval: 4096, simBytes: scale(64 << 10), unitBytes: scale(32 << 10),
			oracle: "nca", swmatchBytes: scale(4 << 10),
			scanRate: 40, feedRate: 60, closedUnit: 32,
		}, nil
	case "logs-dense":
		corpus := gen.LogLines(seed, scale(1<<20))
		return &workload{
			name: name, patterns: logsPatterns,
			inputs: [][]byte{corpus}, stream: corpus,
			bodies: bodiesFrom(r, corpus, 32, 4<<10),
			chunk:  4 << 10, interval: 4096, simBytes: scale(128 << 10),
			oracle: "swmatch", goRegexp: true,
			scanRate: 100, feedRate: 100, closedUnit: 200,
		}, nil
	case "serve-chatty":
		prof, err := datasets.ByName("SpamAssassin")
		if err != nil {
			return nil, err
		}
		pats := prof.Generate(20)
		corpus := gen.Corpus(seed, scale(256<<10), prof.Alphabet, pats, prof.MatchRate)
		msgs := make([][]byte, 0, len(corpus)/512)
		for off := 0; off+512 <= len(corpus); off += 512 {
			msgs = append(msgs, corpus[off:off+512])
		}
		return &workload{
			name: name, patterns: pats,
			inputs: msgs, stream: corpus, bodies: msgs,
			chunk: 256, interval: 1024, simBytes: scale(64 << 10),
			oracle:   "swmatch",
			scanRate: 300, feedRate: 300, closedUnit: 400,
		}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// plantedCorpus is workload.Corpus with the witnesses planted in pattern
// order instead of drawn at random. Snort witnesses run from a few bytes to
// several kilobytes, so a random draw decides per seed how many long
// counting windows the traffic opens, and with them the scan speed; in
// order, every seed plants nearly the same set, at its own positions.
func plantedCorpus(seed int64, n int, alphabet string, patterns []string, rate float64) []byte {
	r := rand.New(rand.NewSource(seed))
	out := gen.Text(seed+1, n, alphabet)
	budget := int(rate * float64(n))
	for i := 0; budget > 0 && i < 4*len(patterns); i++ {
		ast, err := regex.Parse(patterns[i%len(patterns)])
		if err != nil {
			continue
		}
		w := gen.Witness(ast, r)
		if len(w) == 0 || len(w) > n/4 {
			continue
		}
		copy(out[r.Intn(n-len(w)+1):], w)
		budget -= len(w)
	}
	return out
}

// bodiesFrom cuts n bodies of size bytes from corpus at seeded offsets.
func bodiesFrom(r *rand.Rand, corpus []byte, n, size int) [][]byte {
	size = min(size, len(corpus))
	out := make([][]byte, n)
	for i := range out {
		off := r.Intn(len(corpus) - size + 1)
		out[i] = corpus[off : off+size]
	}
	return out
}

func totalBytes(inputs [][]byte) int {
	n := 0
	for _, in := range inputs {
		n += len(in)
	}
	return n
}
