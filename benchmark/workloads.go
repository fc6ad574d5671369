package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
	"unicode"

	"cla"
	"cla/internal/gen"
)

const (
	// profileName is the Table 2 profile every workload generates: the
	// largest one, so the pointer graph has the paper's density.
	profileName = "gimp"
	// jobs is the compile, link and solve parallelism of every workload,
	// sized for a two-core host.
	jobs = 2
	// programSeed generates every workload's C program. The --seed
	// chooses what the workloads do with it: the names queried, the units
	// edited, the dependence targets. The generator's pointer graph varies
	// too much between its seeds to compare runs across them: on gimp@0.1,
	// seeds 1 to 10 give 0.27M to 0.75M points-to relations and 0.15 s to
	// 2.4 s dependence queries.
	programSeed = 1
	// setupReps is how many times each run repeats its set-up; setup_s
	// is the median.
	setupReps = 5
	// depRounds sets the dependence workload's burst length: each round
	// is one snapshot open + first answer, then a burst of the closed
	// loop lasting the run's duration divided by depRounds. With the
	// open and first answer on top, 9 or 10 rounds fit in a run.
	depRounds = 12
	// depScaleCap bounds the input any dependence query runs on. Today a
	// dependence query rebuilds a whole-program index: at gimp@0.3 one
	// query takes about 9 s and 5 GB.
	depScaleCap = 0.1
	// depBankSize is how many distinct targets the dependence workload
	// cycles through, and depLive how many of them the set-up answers from
	// the live analysis (each takes about half a second).
	depBankSize = 16
	depLive     = 4
	// sampleSize is how many pointsto answers the cold-analyze signature
	// digests.
	sampleSize = 32
)

// workload is one set of inputs and operations. Every workload reports
// the same end-to-end metrics; "op" is its foreground operation and
// "reuse" the operation that answers from work stored earlier.
type workload struct {
	name string
	// scale is the gimp profile scale of the generated input.
	scale float64
	// clients is the number of closed-loop client goroutines.
	clients int
	// setup, when non-nil, builds the inputs in its own process, so the
	// measuring process's peak RSS is the serving process's alone.
	// Otherwise measure runs the set-up itself.
	setup   func(*runEnv) *report
	measure func(*runEnv) *report
	// overhead times the workload's op untraced and traced, for
	// trace.overhead_pct.
	overhead func(*layers, *input) (untraced, traced []float64)
}

// The inputs are gimp@0.2 (40 units, 89k lines; about 1 s to a cold
// answer on two cores) rather than larger, so each run takes enough
// samples of every operation for a steady median. There is no workload
// of microsecond-scale point lookups: on a shared two-core VM their
// median moved by up to 38% between two sets of runs of one commit, more
// than any bound can absorb. The traced run still reports the serving
// layer's per-kind latencies (eval.*).
var workloads = []*workload{
	// op: cold OpenWorkspace + first pointsto answer; reuse: the same over
	// the unit store the set-up filled.
	{name: "cold-analyze", scale: 0.2, clients: 1, measure: measureColdAnalyze, overhead: overheadColdAnalyze},
	// op: fact edit to answer; reuse: comment edit to answer.
	{name: "edit-loop", scale: 0.2, clients: 1, measure: measureEditLoop, overhead: overheadEditLoop},
	// op: one dependence query from a snapshot; reuse: OpenSnapshot + the
	// first dependence answer.
	{name: "query-dependence", scale: depScaleCap, clients: 2,
		setup: setupDependence, measure: measureDependence, overhead: overheadDependence},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// runEnv is one child's view of its run.
type runEnv struct {
	opt options
	w   *workload
	ctx context.Context
}

func (e *runEnv) scale() float64 { return e.w.scale }

func (e *runEnv) path(elem ...string) string {
	return filepath.Join(append([]string{e.opt.work}, elem...)...)
}

// limit is the measured duration of the run's loop.
func (e *runEnv) limit() time.Duration { return time.Duration(e.opt.seconds * float64(time.Second)) }

// rng returns a seeded random stream; distinct streams keep one choice
// (say, which unit to edit) from shifting another (which names to query).
func (e *runEnv) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(e.opt.seed*1_000_003 + stream))
}

// input is one generated source tree on disk.
type input struct {
	dir   string
	code  *gen.Code
	units []string // absolute unit paths, in unit order
	files []string // units, then the shared header
}

// writeInput generates the profile at scale and writes it under dir.
func writeInput(dir string, scale float64) (*input, error) {
	p, _ := gen.ProfileByName(profileName)
	code := gen.Generate(p.Scale(scale), programSeed)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	in := &input{dir: dir, code: code}
	for _, u := range code.Units() {
		in.units = append(in.units, filepath.Join(dir, u))
	}
	in.files = append(append([]string(nil), in.units...), filepath.Join(dir, code.Header))
	for name, content := range code.Files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			return nil, err
		}
	}
	return in, nil
}

func (in *input) info() map[string]string {
	return map[string]string{"units": fmt.Sprint(len(in.units)), "lines": fmt.Sprint(in.code.TotalLines())}
}

// declared lists, sorted, the identifiers the generated units define on
// lines starting with decl+stem: ("int *", "gp") finds the global
// pointers, ("int ", "fn") the functions. Query names come from the
// input itself, so any seed yields names that exist.
func declared(code *gen.Code, decl, stem string) []string {
	seen := map[string]bool{}
	for _, u := range code.Units() {
		for _, line := range strings.Split(code.Files[u], "\n") {
			if !strings.HasPrefix(line, decl+stem) {
				continue
			}
			rest := line[len(decl):]
			if end := strings.IndexFunc(rest, func(r rune) bool {
				return !unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '_'
			}); end >= 0 {
				rest = rest[:end]
			}
			seen[rest] = true
		}
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func pick(rng *rand.Rand, names []string) string { return names[rng.Intn(len(names))] }

func pointsTo(name string) cla.Query { return cla.Query{Kind: "pointsto", Name: name} }

// dependenceBank draws dependence queries on global pointers, capped at
// 20 dependents as an editor's "who depends on this" panel would be.
func dependenceBank(rng *rand.Rand, ptrs []string) []cla.Query {
	out := make([]cla.Query, 0, depBankSize)
	for len(out) < depBankSize {
		out = append(out, cla.Query{Kind: "dependence", Target: pick(rng, ptrs), Limit: 20})
	}
	return out
}

// answerHash identifies one answer byte for byte.
func answerHash(r cla.QueryResult) string {
	b, err := json.Marshal(r)
	if err != nil {
		return "unmarshalable: " + err.Error()
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}

// answerErr returns a query's inline error, if any.
func answerErr(r cla.QueryResult) error {
	if r.Err != nil {
		return fmt.Errorf("%s query: %s", r.Kind, r.Err.Message)
	}
	return nil
}

// ---------- cold-analyze ----------

// measureColdAnalyze times the paper's headline path: from a source tree
// to the first answer (op), and the same over the unit store a previous
// session filled (reuse). The set-up writes the tree and fills the store.
// The cold open runs without a store: writing one puts the disk's
// writeback on the clock.
func measureColdAnalyze(e *runEnv) *report {
	rep := newReport()
	dir, store := e.path("tree"), e.path("store")
	rng := e.rng(1)
	var in *input
	var sample []cla.Query
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		var err error
		if in, err = writeInput(dir, e.scale()); !rep.ok(err, "write input") {
			return rep
		}
		if sample == nil {
			ptrs := declared(in.code, "int *", "gp")
			for len(sample) < sampleSize {
				sample = append(sample, pointsTo(pick(rng, ptrs)))
			}
		}
		if !rep.ok(os.RemoveAll(store), "clear unit store") {
			return rep
		}
		if _, _, err := openAndAnswer(e.ctx, dir, store, sample); !rep.ok(err, "fill unit store") {
			return rep
		}
		rep.Setup = append(rep.Setup, time.Since(start).Seconds())
	}
	rep.Info = in.info()

	var cold, reopen []float64
	var want string
	start := time.Now()
	for r := 0; r == 0 || time.Since(start) < e.limit(); r++ {
		d, sig, err := openAndAnswer(e.ctx, dir, "", sample)
		if !rep.ok(err, "cold open") {
			break
		}
		cold = append(cold, ms(d))
		d, sig2, err := openAndAnswer(e.ctx, dir, store, sample)
		if !rep.ok(err, "reopen") {
			break
		}
		reopen = append(reopen, ms(d))
		if want == "" {
			want = sig
		}
		rep.check(sig == want, "cold analysis %d differs from the first one", r)
		rep.check(sig2 == sig, "reopened analysis %d differs from its cold open", r)
	}
	rep.setQ("op_p50_ms", cold, 0.5)
	rep.setQ("reuse_p50_ms", reopen, 0.5)
	return rep
}

// openAndAnswer opens a workspace over dir, with the unit store in store
// unless that is empty, and answers the first sample query, timing both;
// then it returns the analysis's signature: its relation count and a
// digest of every sample answer.
func openAndAnswer(ctx context.Context, dir, store string, sample []cla.Query) (time.Duration, string, error) {
	runtime.GC()
	start := time.Now()
	ws, err := cla.OpenWorkspace(ctx, dir, &cla.WorkspaceOptions{Jobs: jobs, CacheDir: store})
	if err != nil {
		return 0, "", err
	}
	defer ws.Close()
	an := ws.Analysis()
	if _, err := an.Query(ctx, sample[:1]); err != nil {
		return 0, "", err
	}
	d := time.Since(start)
	sig, err := signature(ctx, an, sample)
	return d, sig, err
}

func signature(ctx context.Context, an *cla.Analysis, sample []cla.Query) (string, error) {
	res, err := an.Query(ctx, sample)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	fmt.Fprintf(h, "relations=%d\n", an.Metrics().Relations)
	for _, r := range res {
		if err := answerErr(r); err != nil {
			return "", err
		}
		h.Write([]byte(answerHash(r)))
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}

// ---------- edit-loop ----------

// editor rewrites units as their generated content plus at most one fact
// suffix and one comment suffix each, so the program stays bounded
// however many rounds run.
type editor struct {
	in       *input
	facts    map[int]string
	comments map[int]string
}

func newEditor(in *input) *editor {
	return &editor{in: in, facts: map[int]string{}, comments: map[int]string{}}
}

// fact gives unit u the new points-to fact bench_pK = &bench_gK.
func (ed *editor) fact(u, k int) error {
	ed.facts[u] = fmt.Sprintf("int bench_g%d;\nint *bench_p%d = &bench_g%d;\n", k, k, k)
	return ed.write(u)
}

// comment changes unit u's text without changing its meaning.
func (ed *editor) comment(u, k int) error {
	ed.comments[u] = fmt.Sprintf("/* bench edit %d */\n", k)
	return ed.write(u)
}

// restore rewrites every edited unit with its generated content.
func (ed *editor) restore() error {
	edited := map[int]bool{}
	for u := range ed.facts {
		edited[u] = true
	}
	for u := range ed.comments {
		edited[u] = true
	}
	ed.facts, ed.comments = map[int]string{}, map[int]string{}
	for u := range edited {
		if err := ed.write(u); err != nil {
			return err
		}
	}
	return nil
}

func (ed *editor) write(u int) error {
	orig := ed.in.code.Files[filepath.Base(ed.in.units[u])]
	return os.WriteFile(ed.in.units[u], []byte(orig+ed.facts[u]+ed.comments[u]), 0o644)
}

// twoUnits picks the fact unit and a different comment unit.
func twoUnits(rng *rand.Rand, n int) (int, int) {
	f := rng.Intn(n)
	if n < 2 {
		return f, f
	}
	return f, (f + 1 + rng.Intn(n-1)) % n
}

// onlyPointee reports whether r answers exactly the one object name.
func onlyPointee(r cla.QueryResult, name string) bool {
	return r.Err == nil && len(r.Objects) == 1 && r.Objects[0].Name == name
}

// measureEditLoop times an editing session on an open workspace: each
// round is a fact edit (op: recompile one unit, relink, re-solve), a
// no-op poll, a comment edit on another unit (reuse: recompile and
// relink, but the fixpoint is reused) and another poll. Each edit is
// timed to the answer of one pointsto query.
func measureEditLoop(e *runEnv) *report {
	rep := newReport()
	dir := e.path("tree")
	var in *input
	var ws *cla.Workspace
	for i := 0; i < setupReps; i++ {
		ws = nil
		runtime.GC()
		start := time.Now()
		var err error
		if in, err = writeInput(dir, e.scale()); !rep.ok(err, "write input") {
			return rep
		}
		if ws, err = cla.OpenWorkspace(e.ctx, dir, &cla.WorkspaceOptions{Jobs: jobs}); !rep.ok(err, "open workspace") {
			return rep
		}
		rep.Setup = append(rep.Setup, time.Since(start).Seconds())
	}
	defer ws.Close()
	rep.Info = in.info()

	ed := newEditor(in)
	rng := e.rng(2)
	an := ws.Analysis()
	var fact, comment, poll []float64
	// edit applies one change and times it to the answer of q. Each timed
	// operation starts after a collection, so one operation's garbage
	// does not land on the next one's clock.
	edit := func(unit string, q cla.Query) (*cla.Analysis, cla.QueryResult, time.Duration, error) {
		runtime.GC()
		start := time.Now()
		next, err := ws.Update(e.ctx, unit)
		if err != nil {
			return nil, cla.QueryResult{}, 0, err
		}
		res, err := next.Query(e.ctx, []cla.Query{q})
		if err != nil {
			return nil, cla.QueryResult{}, 0, err
		}
		return next, res[0], time.Since(start), nil
	}
	pollOnce := func() bool {
		runtime.GC()
		start := time.Now()
		next, err := ws.Refresh(e.ctx)
		d := time.Since(start)
		if !rep.ok(err, "poll") {
			return false
		}
		poll = append(poll, ms(d))
		return rep.check(next == an, "poll produced generation %d, want %d unchanged", next.Generation(), an.Generation())
	}

	start := time.Now()
	for k := 0; k == 0 || time.Since(start) < e.limit(); k++ {
		fu, cu := twoUnits(rng, len(in.units))
		q := pointsTo(fmt.Sprintf("bench_p%d", k))
		want := fmt.Sprintf("bench_g%d", k)

		if !rep.ok(ed.fact(fu, k), "write fact edit") {
			break
		}
		next, res, d, err := edit(in.units[fu], q)
		if !rep.ok(err, "fact edit") {
			break
		}
		fact = append(fact, ms(d))
		rep.check(next.Generation() == an.Generation()+1, "fact edit %d: generation %d, want %d", k, next.Generation(), an.Generation()+1)
		rep.check(onlyPointee(res, want), "fact edit %d: pointsto %s = %+v, want {%s}", k, q.Name, res.Objects, want)
		an = next
		if !pollOnce() {
			break
		}

		if !rep.ok(ed.comment(cu, k), "write comment edit") {
			break
		}
		next, res, d, err = edit(in.units[cu], q)
		if !rep.ok(err, "comment edit") {
			break
		}
		comment = append(comment, ms(d))
		rep.check(next == an, "comment edit %d changed the generation to %d", k, next.Generation())
		rep.check(onlyPointee(res, want), "comment edit %d: pointsto %s = %+v, want {%s}", k, q.Name, res.Objects, want)
		if !pollOnce() {
			break
		}
	}
	rep.setQ("op_p50_ms", fact, 0.5)
	rep.setQ("reuse_p50_ms", comment, 0.5)
	rep.Info["poll_p50_ms"] = fmt.Sprintf("%.3f", median(poll))
	return rep
}

// ---------- query-dependence ----------

// expectation is what the set-up process hands the measuring one: the
// snapshot, the queries to send and the live analysis's answers to the
// first len(Hashes) of them.
type expectation struct {
	Snapshot string      `json:"snapshot"`
	Queries  []cla.Query `json:"queries"`
	Hashes   []string    `json:"hashes"`
}

// setupDependence builds a solved snapshot of the input with its sources
// recorded (set-up, timed), then records the live analysis's answers to
// the first depLive queries (not timed) for the measuring process to
// check the snapshot's against.
func setupDependence(e *runEnv) *report {
	rep := newReport()
	dir, snap := e.path("tree"), e.path("analysis.snap")
	var in *input
	var an *cla.Analysis
	for i := 0; i < setupReps; i++ {
		an = nil
		runtime.GC()
		start := time.Now()
		var err error
		if in, err = writeInput(dir, e.scale()); !rep.ok(err, "write input") {
			return rep
		}
		ws, err := cla.OpenWorkspace(e.ctx, dir, &cla.WorkspaceOptions{Jobs: jobs})
		if !rep.ok(err, "open workspace") {
			return rep
		}
		an = ws.Analysis()
		if !rep.ok(an.SaveSnapshot(snap, &cla.SnapshotOptions{Sources: in.files}), "save snapshot") {
			return rep
		}
		rep.Setup = append(rep.Setup, time.Since(start).Seconds())
	}
	rep.Info = in.info()

	exp := expectation{Snapshot: snap, Queries: dependenceBank(e.rng(3), declared(in.code, "int *", "gp"))}
	for _, q := range exp.Queries[:depLive] {
		res, err := an.Query(e.ctx, []cla.Query{q})
		if err == nil {
			err = answerErr(res[0])
		}
		if !rep.ok(err, "live answer") {
			return rep
		}
		exp.Hashes = append(exp.Hashes, answerHash(res[0]))
	}
	b, err := json.Marshal(exp)
	if err == nil {
		err = os.WriteFile(e.path("expect.json"), b, 0o644)
	}
	rep.ok(err, "write expectation")
	return rep
}

// measureDependence alternates, for the run's duration, a reuse cycle
// (OpenSnapshot and the first dependence answer, with nothing else
// running) and a burst of the closed loop of the workload's clients on a
// snapshot kept open (op). The host's speed drifts over tens of seconds,
// so spreading both operations over the whole run keeps each median from
// landing in its own stretch of it. Every answer is checked: against the
// live answer for the first depLive targets, and against its own first
// answer for the rest.
func measureDependence(e *runEnv) *report {
	rep := newReport()
	var exp expectation
	b, err := os.ReadFile(e.path("expect.json"))
	if err == nil {
		err = json.Unmarshal(b, &exp)
	}
	if err == nil && (len(exp.Hashes) == 0 || len(exp.Hashes) > len(exp.Queries)) {
		err = fmt.Errorf("%d live answers for %d queries", len(exp.Hashes), len(exp.Queries))
	}
	if !rep.ok(err, "read expectation") {
		return rep
	}

	an, err := cla.OpenSnapshot(exp.Snapshot, nil)
	if !rep.ok(err, "open snapshot") {
		return rep
	}
	defer an.Close()
	var reuse, op []float64
	var first sync.Map // bank index → hash of the first answer
	next := make([]int, e.w.clients)
	for c := range next {
		next[c] = c * len(exp.Queries) / len(next)
	}
	burst := e.limit() / depRounds
	start := time.Now()
	for r := 0; r == 0 || time.Since(start) < e.limit(); r++ {
		d, err := reuseCycle(e.ctx, &exp, r%len(exp.Hashes))
		if !rep.ok(err, "snapshot reuse") {
			break
		}
		reuse = append(reuse, ms(d))
		op = append(op, closedLoop(e.ctx, rep, an, &exp, next, &first, burst)...)
	}
	rep.setQ("reuse_p50_ms", reuse, 0.5)
	rep.setQ("op_p50_ms", op, 0.5)
	return rep
}

// reuseCycle opens the snapshot and answers bank query k from it, timing
// both, and checks the answer against the live one. Unlike the other
// workloads' timed operations, it forces no collection first: with one
// before each cycle, both this workload's medians came out slower and
// less steady, in three runs interleaved with three without.
func reuseCycle(ctx context.Context, exp *expectation, k int) (time.Duration, error) {
	start := time.Now()
	an, err := cla.OpenSnapshot(exp.Snapshot, nil)
	if err != nil {
		return 0, err
	}
	defer an.Close()
	res, err := an.Query(ctx, exp.Queries[k:k+1])
	d := time.Since(start)
	if err != nil {
		return 0, err
	}
	return d, checkAnswer(exp, k, res[0], nil)
}

// closedLoop runs one client per element of next against an for burst,
// each sending its next single-query batch when the previous one
// returns, and returns every latency in ms. next[c] is the bank index
// client c asks next; it carries over from one burst to the following
// one.
func closedLoop(ctx context.Context, rep *report, an *cla.Analysis, exp *expectation, next []int, first *sync.Map, burst time.Duration) []float64 {
	lats := make([][]float64, len(next))
	var wg sync.WaitGroup
	start := time.Now()
	for c := range next {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for sent := false; !sent || time.Since(start) < burst; sent = true {
				k := next[c] % len(exp.Queries)
				next[c]++
				t := time.Now()
				res, err := an.Query(ctx, exp.Queries[k:k+1])
				d := time.Since(t)
				if err == nil {
					err = checkAnswer(exp, k, res[0], first)
				}
				if err != nil {
					rep.check(false, "query: %v", err)
					continue
				}
				lats[c] = append(lats[c], ms(d))
			}
		}(c)
	}
	wg.Wait()
	var all []float64
	for _, l := range lats {
		all = append(all, l...)
	}
	rep.add(len(all))
	return all
}

// checkAnswer checks the answer r to bank query k: it must carry no
// error, and it must equal the live answer, or when there is none, the
// first answer to k recorded in first.
func checkAnswer(exp *expectation, k int, r cla.QueryResult, first *sync.Map) error {
	if err := answerErr(r); err != nil {
		return err
	}
	h := answerHash(r)
	if k < len(exp.Hashes) {
		if h != exp.Hashes[k] {
			return fmt.Errorf("answer to %+v differs from the live one", exp.Queries[k])
		}
		return nil
	}
	if prev, loaded := first.LoadOrStore(k, h); loaded && prev.(string) != h {
		return fmt.Errorf("answer to %+v differs from its first answer", exp.Queries[k])
	}
	return nil
}
