package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"camc/internal/arch"
	"camc/internal/core"
	"camc/internal/tuner"
)

// The tune workload: one closed-loop client sends Zipf-skewed plan
// requests over arch × kind × ambient bucket through the service's HTTP
// handler in process (no sockets), on CI's short 4K,64K probe ladder.
const (
	tuneProcs = 24 // every stream key's rank count; fits all three archs
	// tuneWarmProcs keys the warm-up, so it never touches a stream key.
	tuneWarmProcs = 16
	// tuneRequestsPerSecond fixes the request count from --seconds.
	tuneRequestsPerSecond = 50000
	tuneZipfS             = 1.2
	// tuneDriftThreshold makes a drifting key dirty only once its EWMA
	// is within 0.4 of the drift target (tuned 8, drift 12: after seven
	// requests), so every Retune rebuilds the table at exactly the
	// target and the served plans stay predictable.
	tuneDriftThreshold = 3.6
	tuneDriftStep      = 4
	tuneBurst          = 8
)

var (
	tuneProbeSizes   = []int64{4 << 10, 64 << 10}
	tuneRequestSizes = []int64{1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20}
	tuneBuckets      = []int{0, 2, 8, 32}
	// tuneArchs fixes the key order (arch.All order is the paper's).
	tuneArchs = []string{"knl", "broadwell", "power8"}
)

type tuneKey struct {
	arch   string
	kind   core.Kind
	bucket int
}

func tuneKeys() []tuneKey {
	var keys []tuneKey
	for _, a := range tuneArchs {
		for _, k := range tuner.Kinds() {
			for _, b := range tuneBuckets {
				keys = append(keys, tuneKey{a, k, b})
			}
		}
	}
	return keys
}

// tuneDrift is the fixed drift schedule: before retune p, the keys in
// tuneDrift[p] move their reported ambient tuneDriftStep holders above
// their bucket (staying inside it) and keep it there.
var tuneDrift = [][]tuneKey{
	{{"knl", core.KindScatter, 8}, {"broadwell", core.KindAllgather, 32}, {"power8", core.KindBcast, 8}},
	{{"knl", core.KindAlltoall, 32}, {"broadwell", core.KindGather, 8}, {"power8", core.KindReduce, 32}},
	{{"knl", core.KindBcast, 8}, {"broadwell", core.KindReduce, 32}, {"power8", core.KindScatter, 8}},
	{{"knl", core.KindReduce, 32}, {"broadwell", core.KindScatter, 8}, {"power8", core.KindAlltoall, 32}},
}

var tuneKeyList = tuneKeys()

// tuneOp is one client step: a plan request, or (retune) a drift-driven
// Service.Retune. It is kept small because the stream is long; the URL
// and the expectation key are looked up in tables setup builds.
type tuneOp struct {
	retune  bool
	want    uint8 // retune: tables expected to rebuild
	key     uint8 // index into tuneKeyList
	size    uint8 // index into tuneRequestSizes
	drifted bool  // reports the drifted ambient
	retuned bool  // served from the table retuned at the drifted ambient
	miss    bool  // first request to its key
}

func (o tuneOp) tkey() tuneKey { return tuneKeyList[o.key] }

func (o tuneOp) ambient() int {
	if o.drifted {
		return o.tkey().bucket + tuneDriftStep
	}
	return o.tkey().bucket
}

func (o tuneOp) url() string {
	k := o.tkey()
	return fmt.Sprintf("/plan?arch=%s&kind=%s&size=%d&procs=%d&ambient=%d", k.arch, k.kind, tuneRequestSizes[o.size], tuneProcs, o.ambient())
}

func (o tuneOp) expectKey() string {
	k, tuned := o.tkey(), o.tkey().bucket
	if o.retuned {
		tuned += tuneDriftStep
	}
	return fmt.Sprintf("%s/%s/amb%d/%s", k.arch, k.kind, tuned, sizeLabel(tuneRequestSizes[o.size]))
}

// slot indexes the per-(key, size, flag) string tables.
func (o tuneOp) slot(flag bool) int {
	i := (int(o.key)*len(tuneRequestSizes) + int(o.size)) * 2
	if flag {
		i++
	}
	return i
}

// tuneStream builds the op list: every key once plus Zipf-skewed
// requests (the key ranking permuted by the seed), with the drift
// bursts and retunes at fixed indices.
func tuneStream(seed int64, n int) []tuneOp {
	rng := rand.New(rand.NewSource(seed))
	index := map[tuneKey]uint8{}
	for i, k := range tuneKeyList {
		index[k] = uint8(i)
	}
	rank := rng.Perm(len(tuneKeyList))
	zipf := rand.NewZipf(rng, tuneZipfS, 1, uint64(len(tuneKeyList)-1))
	base := make([]uint8, 0, n)
	for i := range tuneKeyList {
		base = append(base, uint8(i))
	}
	for len(base) < n {
		base = append(base, uint8(rank[zipf.Uint64()]))
	}
	rng.Shuffle(len(base), func(i, j int) { base[i], base[j] = base[j], base[i] })

	var drifting, retuned, seen [256]bool
	ops := make([]tuneOp, 0, n+len(tuneDrift)*(tuneBurst*3+1))
	req := func(k uint8) {
		ops = append(ops, tuneOp{key: k, size: uint8(rng.Intn(len(tuneRequestSizes))),
			drifted: drifting[k], retuned: retuned[k], miss: !seen[k]})
		seen[k] = true
	}
	phase := 0
	for i, k := range base {
		if phase < len(tuneDrift) && i == n*(phase+1)/(len(tuneDrift)+1) {
			for _, d := range tuneDrift[phase] {
				drifting[index[d]] = true
			}
			for b := 0; b < tuneBurst; b++ {
				for _, d := range tuneDrift[phase] {
					req(index[d])
				}
			}
			ops = append(ops, tuneOp{retune: true, want: uint8(len(tuneDrift[phase]))})
			for _, d := range tuneDrift[phase] {
				retuned[index[d]] = true
			}
			phase++
		}
		req(k)
	}
	return ops
}

type tune struct {
	svc   *tuner.Service
	h     http.Handler
	ops   []tuneOp
	reqs  []*http.Request // by slot(drifted)
	exps  []string        // by slot(retuned)
	rw    respWriter
	warm  tuner.Stats // counters the warm-up left
	warmN int64       // requests the warm-up sent
}

func (w *tune) setup(e *env) error {
	w.ops = tuneStream(e.seed, e.seconds*tuneRequestsPerSecond)
	n := len(tuneKeyList) * len(tuneRequestSizes) * 2
	w.reqs, w.exps = make([]*http.Request, n), make([]string, n)
	for k := range tuneKeyList {
		for sz := range tuneRequestSizes {
			for _, f := range []bool{false, true} {
				o := tuneOp{key: uint8(k), size: uint8(sz), drifted: f, retuned: f}
				w.reqs[o.slot(f)] = httptest.NewRequest(http.MethodGet, o.url(), nil)
				w.exps[o.slot(f)] = o.expectKey()
			}
		}
	}
	w.rw.h = http.Header{}
	w.svc = tuner.NewService(tuner.ServiceConfig{ProbeSizes: tuneProbeSizes, Jobs: 1, DriftThreshold: tuneDriftThreshold})
	w.h = w.svc.Handler()
	return w.warmUp()
}

// warmUp runs every op shape once — a miss per (arch, kind), hits, a
// drift and a retune — on keys at tuneWarmProcs ranks, which the
// request stream never uses.
func (w *tune) warmUp() error {
	get := func(a string, k core.Kind, amb int) error {
		w.warmN++
		_, err := w.serve(httptest.NewRequest(http.MethodGet, fmt.Sprintf("/plan?arch=%s&kind=%s&size=65536&procs=%d&ambient=%d", a, k, tuneWarmProcs, amb), nil))
		return err
	}
	for _, a := range tuneArchs {
		for _, k := range tuner.Kinds() {
			for r := 0; r < 4; r++ {
				if err := get(a, k, 8); err != nil {
					return err
				}
			}
		}
	}
	for b := 0; b < tuneBurst; b++ {
		if err := get("knl", core.KindScatter, 8+tuneDriftStep); err != nil {
			return err
		}
	}
	if n := w.svc.Retune(); n != 1 {
		return fmt.Errorf("warm-up retune rebuilt %d tables, want 1", n)
	}
	w.warm = w.svc.Stats()
	return nil
}

// serve sends one request through the handler. The requests are built
// in setup and the response writer is reused, so the client side of a
// request allocates next to nothing and the op's cost is the service's.
func (w *tune) serve(req *http.Request) (tuner.PlanResponse, error) {
	rw := &w.rw
	clear(rw.h)
	rw.body.Reset()
	rw.code = http.StatusOK
	w.h.ServeHTTP(rw, req)
	var resp tuner.PlanResponse
	if rw.code != http.StatusOK {
		return resp, fmt.Errorf("%s: HTTP %d: %s", req.URL, rw.code, rw.body.String())
	}
	err := json.Unmarshal(rw.body.Bytes(), &resp)
	return resp, err
}

// respWriter is a reusable in-process http.ResponseWriter.
type respWriter struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func (r *respWriter) Header() http.Header         { return r.h }
func (r *respWriter) Write(b []byte) (int, error) { return r.body.Write(b) }
func (r *respWriter) WriteHeader(code int)        { r.code = code }

func (w *tune) numOps() int  { return len(w.ops) }
func (w *tune) passLen() int { return len(w.ops) }

func (w *tune) op(i int, tr *tracer) (string, []string, error) {
	o := w.ops[i]
	if o.retune {
		id := tr.begin("tuner.Retune")
		n := w.svc.Retune()
		tr.end(id)
		if n != int(o.want) {
			return "", nil, fmt.Errorf("retune rebuilt %d tables, want %d", n, o.want)
		}
		return "", nil, nil
	}
	class := "hit"
	if o.miss {
		class = "miss"
	}
	key := w.exps[o.slot(o.retuned)]
	id := tr.begin("tuner.ServeHTTP/" + class)
	resp, err := w.serve(w.reqs[o.slot(o.drifted)])
	tr.end(id)
	if err != nil {
		return key, nil, err
	}
	if bucket := o.tkey().bucket; resp.Cached == o.miss || resp.Bucket != bucket {
		return key, nil, fmt.Errorf("served cached=%v bucket=%d, want cached=%v bucket=%d", resp.Cached, resp.Bucket, !o.miss, bucket)
	}
	return key, []string{resp.Algorithm, strconv.FormatInt(resp.MaxSize, 10), bits(resp.Latency)}, nil
}

// finish checks the service's counters against the stream: one miss per
// key, every other request a hit, one rebuilt table per drifted key.
func (w *tune) finish(*tracer) error {
	st := w.svc.Stats()
	var reqs, misses, retunes int64
	for _, o := range w.ops {
		switch {
		case o.retune:
			retunes += int64(o.want)
		case o.miss:
			misses++
			reqs++
		default:
			reqs++
		}
	}
	hits, miss, ret := st.Hits-w.warm.Hits, st.Misses-w.warm.Misses, st.Retunes-w.warm.Retunes
	if miss != misses || hits != reqs-misses || ret != retunes || st.Shared != 0 {
		return fmt.Errorf("service stats %+v after warm-up %+v: want %d misses, %d hits, %d retunes", st, w.warm, misses, reqs-misses, retunes)
	}
	return nil
}

// record tunes every (arch, kind, tuned ambient) table the stream can be
// served from directly with tuner.Autotune, at the service's settings,
// and records the plan for every request size.
func (w *tune) record() (expectations, error) {
	exp := expectations{}
	for _, a := range tuneArchs {
		prof, err := arch.ByName(a)
		if err != nil {
			return nil, err
		}
		for _, k := range tuner.Kinds() {
			for _, b := range tuneBuckets {
				ambs := []int{b}
				if b >= 8 {
					ambs = append(ambs, b+tuneDriftStep)
				}
				for _, amb := range ambs {
					tab := tuner.Autotune(prof, tuner.Config{Procs: tuneProcs, ProbeSizes: tuneProbeSizes, Jobs: 1, Ambient: amb, Kinds: []core.Kind{k}})
					for _, size := range tuneRequestSizes {
						e := tab.Lookup(k, size)
						key := fmt.Sprintf("%s/%s/amb%d/%s", a, k, amb, sizeLabel(size))
						exp[key] = []string{e.Name, strconv.FormatInt(e.MaxSize, 10), bits(e.Latency)}
					}
				}
			}
		}
	}
	return exp, nil
}

func (w *tune) close() {}

func (w *tune) layers(tr *tracer, m map[string]float64) error {
	var reqs float64
	for _, o := range w.ops {
		if !o.retune {
			reqs++
		}
	}
	st := w.svc.Stats()
	m["tuner.hit_ratio"] = float64(st.Hits-w.warm.Hits) / reqs
	m["tuner.hit_us_p50"] = median(tr.durations("tuner.ServeHTTP/hit")) * 1e3
	m["tuner.miss_ms_p50"] = median(tr.durations("tuner.ServeHTTP/miss"))
	m["tuner.retune_ms"] = median(tr.durations("tuner.Retune"))

	// Handler cost: the same cached plan through ServeHTTP and through a
	// direct Plan call, alternated.
	o := w.ops[len(w.ops)-1]
	hreq := w.reqs[o.slot(o.drifted)]
	req := tuner.PlanRequest{Arch: o.tkey().arch, Procs: tuneProcs, Kind: o.tkey().kind, Size: tuneRequestSizes[o.size], Ambient: o.ambient()}
	const n = 2000
	viaHTTP, direct := make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		id := tr.begin("tuner.ServeHTTP/probe")
		t := time.Now()
		_, err := w.serve(hreq)
		viaHTTP[i] = float64(time.Since(t)) / 1e3
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin("tuner.Plan/probe")
		t = time.Now()
		_, err = w.svc.Plan(req)
		direct[i] = float64(time.Since(t)) / 1e3
		tr.end(id)
		if err != nil {
			return err
		}
	}
	m["tuner.handler_us_p50"] = median(viaHTTP) - median(direct)
	return nil
}
