package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mlcg/internal/cluster"
	"mlcg/internal/coarsen"
	"mlcg/internal/gen"
	"mlcg/internal/graph"
	"mlcg/internal/obs"
	"mlcg/internal/partition"
	"mlcg/internal/serve"
)

// The serve-mixed workload drives an in-process serve.Server over
// loopback HTTP with one closed-loop client. The client repeats one chain:
// ingest a text edge list, build its hierarchy (blocking on ?wait=1), then
// partition and cluster queries on it and on one shared hot hierarchy.
// Every fourth chain re-sends the graph an earlier chain sent, so the
// content-addressed caches are hit; the rest send fresh graphs. One client
// keeps every request's latency that of the server alone: with nproc
// clients on nproc cores, a build's latency depended on what the other
// client's request was doing at the time, and medians moved by a third
// between runs of the same code.
const (
	// serveClients is the number of closed-loop clients and connections.
	serveClients = 1
	// serveRound is how many chains one server answers before it is
	// replaced, untimed, by a fresh one. The server caches every graph and
	// hierarchy it is sent and never evicts, so without replacement its
	// heap, and with it peak_rss_mb and the GC work per request, would grow
	// with the number of chains a run completes, which follows host load.
	// A multiple of 4, so a resent graph is resent to the server that has
	// it, and far below the server's default MaxGraphs/MaxHierarchies
	// (256), so a 507 is a failure, not a property of the mix.
	serveRound = 32
	// serveFresh bounds the distinct fresh graphs of a run, and with them
	// the reference hierarchies verification builds. A 15 s run sends about
	// half of this; should one get that far, later rounds send earlier
	// graphs again, to servers that have not seen them.
	serveFresh = 240
)

// serveBaseN are the vertex counts of the base graphs fresh graphs are
// relabelings of: a random geometric graph of about 100k edges, so every
// fresh build is medium-sized and alike, and each latency median sits
// inside one mode.
var serveBaseN = []int{10000}

// serveKs are the partition part counts the chains cycle through.
var serveKs = []int{2, 4, 8}

type serveBench struct {
	cfg    config
	bases  []*graph.Graph   // fresh graphs are relabelings of these
	hot    []byte           // the shared hot graph, as edge-list text
	hotID  string           // its hierarchy id
	sizes  []map[string]any // n, m and 2m+n of the base and hot graphs
	next   int              // index of the next chain, across every leg of a run
	seed   uint64           // build seed
	qseed  uint64           // query seed
	srv    *serve.Server
	hs     *http.Server
	url    string
	client *http.Client
	tr     *http.Transport
}

func runServe(cfg config) (*report, error) {
	sb, setupS, err := timedSetup(func() (*serveBench, error) { return newServeBench(cfg) }, (*serveBench).close)
	if err != nil {
		return nil, err
	}
	defer sb.close()
	rep := newReport()
	rep.e2e["setup_s"] = setupS
	if cfg.trace {
		sb.traced(rep)
	} else {
		lg := sb.loop(rep, cfg.dur, nil, false)
		sb.close()
		sb.verify(rep, lg)
		lg.report(rep, rep.e2e)
		rep.detail["tails"] = lg.tails()
	}
	rep.detail["graphs"] = sb.sizes
	rep.detail["clients"] = serveClients
	rep.detail["loop"] = "closed"
	return rep, nil
}

// newServeBench generates the graphs and starts the server.
func newServeBench(cfg config) (*serveBench, error) {
	sb := &serveBench{cfg: cfg, seed: derive(cfg.seed, 2), qseed: derive(cfg.seed, 3)}
	insts := make([]gen.Instance, len(serveBaseN))
	for i, n := range serveBaseN {
		g := gen.RGG(n, 0, derive(cfg.seed, uint64(5+i)))
		sb.bases = append(sb.bases, g)
		insts[i] = gen.Instance{Name: fmt.Sprintf("fresh-rgg%d", n), Graph: g}
	}
	hotG := gen.TriMesh(120, 120, derive(cfg.seed, 4))
	sb.sizes = graphSizes(append(insts, gen.Instance{Name: "hot-trimesh", Graph: hotG}))
	hot, err := edgeList(hotG)
	if err != nil {
		return nil, err
	}
	sb.hot = hot
	if err := sb.start(); err != nil {
		return nil, err
	}
	return sb, nil
}

// start starts a fresh server on a loopback port and warms it up with the
// hot hierarchy.
func (sb *serveBench) start() error {
	sb.srv = serve.New(serve.Config{Workers: sb.cfg.p, BuildWorkers: sb.cfg.p})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sb.srv.Close()
		sb.srv = nil
		return err
	}
	sb.url = "http://" + ln.Addr().String()
	sb.hs = &http.Server{Handler: sb.srv.Handler()}
	go sb.hs.Serve(ln)
	sb.tr = &http.Transport{MaxConnsPerHost: serveClients, MaxIdleConnsPerHost: serveClients}
	sb.client = &http.Client{Transport: sb.tr, Timeout: time.Minute}

	var info graphInfo
	if _, err := sb.post("/v1/graphs?format=edgelist", sb.hot, &info); err != nil {
		sb.close()
		return fmt.Errorf("warm-up ingest: %w", err)
	}
	var st buildStatus
	if _, err := sb.postJSON("/v1/hierarchies?wait=1", map[string]any{"graph": info.ID, "seed": sb.seed}, &st); err != nil {
		sb.close()
		return fmt.Errorf("warm-up build: %w", err)
	}
	sb.hotID = st.ID
	for _, k := range serveKs {
		var pr partitionResp
		if _, err := sb.postJSON("/v1/partition", map[string]any{"hierarchy": sb.hotID, "k": k, "seed": sb.qseed}, &pr); err != nil {
			sb.close()
			return fmt.Errorf("warm-up partition: %w", err)
		}
	}
	return nil
}

// close stops the HTTP server, drains the mlcg server, and drops both, so
// their caches can be collected; later calls do nothing.
func (sb *serveBench) close() {
	if sb.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		sb.hs.Shutdown(ctx)
		cancel()
		sb.hs = nil
	}
	if sb.srv != nil {
		sb.srv.Close()
		sb.srv = nil
	}
	if sb.tr != nil {
		sb.tr.CloseIdleConnections()
		sb.tr = nil
	}
}

func edgeList(g *graph.Graph) ([]byte, error) {
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// text renders fresh graph gi: its base graph under a seeded random vertex
// relabeling, in the edge-list format WriteEdgeList writes. Every gi gives
// a distinct graph at O(m) cost, so fresh graphs need no memory between
// chains.
func (sb *serveBench) text(gi int) []byte {
	base := sb.bases[gi%len(sb.bases)]
	n := base.NumV
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	state := derive(sb.cfg.seed, uint64(100+gi))
	for i := n - 1; i > 0; i-- {
		state = derive(state, 1)
		j := state % uint64(i+1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	buf := make([]byte, 0, 20*base.M()+32)
	buf = strconv.AppendInt(buf, int64(n), 10)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, base.M(), 10)
	buf = append(buf, '\n')
	for u := int32(0); u < n; u++ {
		adj, wgt := base.Neighbors(u)
		for k, v := range adj {
			if u < v {
				buf = strconv.AppendInt(buf, int64(perm[u]), 10)
				buf = append(buf, ' ')
				buf = strconv.AppendInt(buf, int64(perm[v]), 10)
				buf = append(buf, ' ')
				buf = strconv.AppendInt(buf, wgt[k], 10)
				buf = append(buf, '\n')
			}
		}
	}
	return buf
}

// Response bodies, as the server writes them.
type graphInfo struct {
	ID string `json:"id"`
	N  int32  `json:"n"`
	M  int64  `json:"m"`
}

type buildStatus struct {
	ID      string  `json:"id"`
	Status  string  `json:"status"`
	Levels  int     `json:"levels"`
	CoarseN int32   `json:"coarsest_n"`
	Ratio   float64 `json:"coarsening_ratio"`
	Stalled bool    `json:"stalled"`
}

type partitionResp struct {
	Cut       int64   `json:"cut"`
	Imbalance float64 `json:"imbalance"`
}

type clusterResp struct {
	K          int32   `json:"k"`
	Modularity float64 `json:"modularity"`
}

// post sends body and decodes a 2xx JSON response into out. It returns
// the status code; anything but 2xx is an error.
func (sb *serveBench) post(path string, body []byte, out any) (int, error) {
	resp, err := sb.client.Post(sb.url+path, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return resp.StatusCode, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, out); err != nil {
		return resp.StatusCode, fmt.Errorf("%s: %w", path, err)
	}
	return resp.StatusCode, nil
}

func (sb *serveBench) postJSON(path string, req any, out any) (int, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	return sb.post(path, body, out)
}

// call is one completed request of a chain, kept for verification.
type call struct {
	kind  string // ingest, build, partition, cluster
	graph int    // fresh graph index, or -1 for the hot graph
	k     int
	out   any
}

// leg is what one measured stretch of chains recorded.
type leg struct {
	mu                   sync.Mutex
	ingest, build, query []float64 // client latencies, ms
	chains               []float64 // chain latencies, s
	chainQuery           []float64 // per chain: mean latency of its queries, ms
	calls                []call
	ok, attempted        int64
	status               map[int]int64      // failed requests by status code
	wall                 time.Duration      // chain time, server replacements left out
	metrics              map[string]float64 // with scrape: /metrics deltas summed over the leg's servers
}

// loop runs the closed-loop client for d of chain time, replacing the
// server every serveRound chains. With span non-nil every request gets a
// span under the client's span; with scrape set, each server's /metrics
// is scraped before and after its chains and the deltas summed into
// lg.metrics.
func (sb *serveBench) loop(rep *report, d time.Duration, span *obs.Span, scrape bool) *leg {
	lg := &leg{status: map[int]int64{}, metrics: map[string]float64{}}
	cs := span.Child("client 0")
	defer cs.End()
	var before map[string]float64
	mark := func(first bool) bool {
		if !scrape {
			return true
		}
		now, err := sb.scrape()
		if err != nil {
			rep.fail("scrape /metrics: %v", err)
			return false
		}
		if !first {
			for name, v := range now {
				lg.metrics[name] += v - before[name]
			}
		}
		before = now
		return true
	}
	if !mark(true) {
		return lg
	}
	for lg.wall < d {
		i := sb.next
		sb.next++
		if i > 0 && i%serveRound == 0 {
			if !mark(false) {
				return lg
			}
			sb.close()
			runtime.GC()
			if err := sb.start(); err != nil {
				rep.fail("replacing the server: %v", err)
				return lg
			}
			if !mark(true) {
				return lg
			}
		}
		t0 := time.Now()
		sb.chain(rep, lg, i, cs)
		lg.wall += time.Since(t0)
	}
	mark(false)
	return lg
}

// freshIndex maps chain i to the fresh graph it sends: three new graphs,
// then a resend of the graph chain i-3 sent.
func freshIndex(i int) int {
	if i%4 == 3 {
		i -= 3
	}
	return (i - i/4) % serveFresh
}

// chain runs one client chain. A failed request ends the chain.
func (sb *serveBench) chain(rep *report, lg *leg, i int, cs *obs.Span) {
	gi := freshIndex(i)
	k := serveKs[i%len(serveKs)]
	hotK := serveKs[(i+1)%len(serveKs)]
	text := sb.text(gi)
	t0 := time.Now()
	var info graphInfo
	if _, ok := sb.request(rep, lg, cs, "ingest", "/v1/graphs?format=edgelist", text, &info, call{kind: "ingest", graph: gi}); !ok {
		return
	}
	var st buildStatus
	if _, ok := sb.request(rep, lg, cs, "build", "/v1/hierarchies?wait=1", mustJSON(map[string]any{"graph": info.ID, "seed": sb.seed}), &st, call{kind: "build", graph: gi}); !ok {
		return
	}
	queries := []struct {
		kind string
		hier string
		gi   int
		k    int
	}{
		{"partition", st.ID, gi, k},
		{"cluster", st.ID, gi, 0},
		{"partition", sb.hotID, -1, hotK},
		{"cluster", sb.hotID, -1, 0},
	}
	var querySum float64
	for _, q := range queries {
		var out any
		var body []byte
		if q.kind == "partition" {
			out = &partitionResp{}
			body = mustJSON(map[string]any{"hierarchy": q.hier, "k": q.k, "seed": sb.qseed})
		} else {
			out = &clusterResp{}
			body = mustJSON(map[string]any{"hierarchy": q.hier, "seed": sb.qseed})
		}
		lat, ok := sb.request(rep, lg, cs, q.kind, "/v1/"+q.kind, body, out, call{kind: q.kind, graph: q.gi, k: q.k})
		if !ok {
			return
		}
		querySum += lat
	}
	lg.mu.Lock()
	lg.chains = append(lg.chains, time.Since(t0).Seconds())
	lg.chainQuery = append(lg.chainQuery, querySum/float64(len(queries)))
	lg.mu.Unlock()
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only maps of strings and numbers are marshalled
	}
	return b
}

// request sends one request and records its latency (ms) and response.
func (sb *serveBench) request(rep *report, lg *leg, cs *obs.Span, kind, path string, body []byte, out any, c call) (float64, bool) {
	s := cs.Child("serve." + kind)
	t0 := time.Now()
	code, err := sb.post(path, body, out)
	lat := ms(time.Since(t0))
	s.End()
	lg.mu.Lock()
	defer lg.mu.Unlock()
	lg.attempted++
	if err != nil {
		lg.status[code]++
		rep.fail("%s: %v", kind, err)
		return lat, false
	}
	lg.ok++
	c.out = out
	lg.calls = append(lg.calls, c)
	switch kind {
	case "ingest":
		lg.ingest = append(lg.ingest, lat)
	case "build":
		lg.build = append(lg.build, lat)
	default:
		lg.query = append(lg.query, lat)
	}
	return lat, true
}

// report writes a leg's end-to-end metrics into m.
func (lg *leg) report(rep *report, m map[string]float64) {
	rep.attempted += lg.attempted
	m["pass_s"] = median(lg.chains)
	m["ops_per_s"] = float64(lg.ok) / lg.wall.Seconds()
	m["build_p50_ms"] = median(lg.build)
	// Chains mix four query kinds of different cost in fixed shares, so
	// the median of single query latencies sits on a boundary between
	// kinds; the median of each chain's mean query latency does not.
	m["query_p50_ms"] = median(lg.chainQuery)
}

func (lg *leg) tails() map[string]any {
	return map[string]any{
		"ingest_p50_ms": median(lg.ingest),
		"ingest_ms":     tailOf(lg.ingest),
		"build_ms":      tailOf(lg.build),
		"query_ms":      tailOf(lg.query),
		"chain_s":       tailOf(lg.chains),
		"chains":        len(lg.chains),
	}
}

// verify compares every recorded response with the same public calls made
// in process on the same graph, parameters and seeds. Untimed.
func (sb *serveBench) verify(rep *report, lg *leg) {
	type ref struct {
		info graphInfo
		h    *coarsen.Hierarchy
		err  error
	}
	// Calls are checked graph by graph, so only one reference hierarchy
	// is alive at a time.
	calls := append([]call(nil), lg.calls...)
	sort.SliceStable(calls, func(a, b int) bool { return calls[a].graph < calls[b].graph })
	var cur *ref
	curGraph, distinct := -2, 0
	reference := func(gi int) *ref {
		if gi == curGraph {
			return cur
		}
		curGraph, distinct = gi, distinct+1
		text := sb.hot
		if gi >= 0 {
			text = sb.text(gi)
		}
		r := &ref{}
		cur = r
		g, err := graph.StreamEdges(bytes.NewReader(text), sb.cfg.p)
		if err != nil {
			r.err = err
			return r
		}
		hash := sha256.New()
		if err := g.WriteBinary(hash); err != nil {
			r.err = err
			return r
		}
		r.info = graphInfo{ID: hex.EncodeToString(hash.Sum(nil))[:16], N: g.NumV, M: g.M()}
		builder, err := coarsen.BuilderByName("sort")
		if err != nil {
			r.err = err
			return r
		}
		c := coarsen.Coarsener{Mapper: coarsen.HEC{}, Builder: builder, Cutoff: 50, MaxLevels: 201, Seed: sb.seed, Workers: sb.cfg.p}
		r.h, r.err = c.Run(g)
		return r
	}
	type qkey struct{ gi, k int }
	parts := map[qkey]partitionResp{}
	clusters := map[int]clusterResp{}
	for _, c := range calls {
		r := reference(c.graph)
		var err error
		switch {
		case r.err != nil:
			err = r.err
		case c.kind == "ingest":
			if got := *c.out.(*graphInfo); got != r.info {
				err = fmt.Errorf("got %+v, want %+v", got, r.info)
			}
		case c.kind == "build":
			got := *c.out.(*buildStatus)
			want := buildStatus{ID: got.ID, Status: "done", Levels: r.h.Levels(), CoarseN: r.h.Coarsest().NumV,
				Ratio: r.h.CoarseningRatio(), Stalled: r.h.Stalled}
			if got != want {
				err = fmt.Errorf("got %+v, want %+v", got, want)
			}
		case c.kind == "partition":
			key := qkey{c.graph, c.k}
			want, ok := parts[key]
			if !ok {
				res, perr := partition.KWayFM(r.h.Coarsest(), c.k, partition.KWayOptions{Seed: sb.qseed, Workers: sb.cfg.p})
				if perr != nil {
					err = perr
					break
				}
				fine := r.h.ProjectToFine(res.Part)
				g0 := r.h.Graphs[0]
				want = partitionResp{Cut: partition.KWayEdgeCut(g0, fine), Imbalance: partition.KWayImbalance(g0, fine, c.k)}
				parts[key] = want
			}
			if got := *c.out.(*partitionResp); got != want {
				err = fmt.Errorf("k=%d: got %+v, want %+v", c.k, got, want)
			}
		case c.kind == "cluster":
			want, ok := clusters[c.graph]
			if !ok {
				res, cerr := cluster.Louvain(r.h.Coarsest(), cluster.Options{Seed: sb.qseed, Workers: sb.cfg.p})
				if cerr != nil {
					err = cerr
					break
				}
				fine := r.h.ProjectToFine(res.Labels)
				want = clusterResp{K: res.K, Modularity: cluster.Modularity(r.h.Graphs[0], fine)}
				clusters[c.graph] = want
			}
			if got := *c.out.(*clusterResp); got != want {
				err = fmt.Errorf("got %+v, want %+v", got, want)
			}
		}
		if err != nil {
			rep.fail("%s response for graph %d differs from the in-process reference: %v", c.kind, c.graph, err)
		}
	}
	rep.detail["distinct_graphs"] = distinct
}

// traced is the serve-mixed traced run: an untraced leg with Go runtime
// statistics around it, then a traced leg with a span around every
// request, whose servers are scraped for the server-side values.
func (sb *serveBench) traced(rep *report) {
	half := sb.cfg.dur / 2
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	base := sb.loop(rep, half, nil, false)
	runtime.ReadMemStats(&m1)
	n := float64(len(base.chains))
	rep.layers["runtime.alloc_bytes_per_pass"] = float64(m1.TotalAlloc-m0.TotalAlloc) / n
	rep.layers["runtime.gc_cycles"] = float64(m1.NumGC-m0.NumGC) / n
	rep.layers["runtime.gc_pause_s"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e9 / n

	tr := obs.NewTrace(sb.cfg.workload)
	lg := sb.loop(rep, half, tr.Root, true)
	tr.Stop()
	sb.close()
	sb.verify(rep, base)
	sb.verify(rep, lg)
	rep.attempted += base.attempted + lg.attempted
	if err := writeTrace(sb.cfg, tr); err != nil {
		rep.fail("writing trace: %v", err)
	}

	delta := func(name string) float64 { return lg.metrics[name] }
	// meanMS is a histogram's mean over the traced leg; labels is the
	// series' label set, "" or like {kind="partition"}.
	meanMS := func(hist, labels string) float64 {
		if c := delta(hist + "_count" + labels); c > 0 {
			return 1e3 * delta(hist+"_sum"+labels) / c
		}
		return 0
	}
	l := rep.layers
	l["serve.ingest_ms"] = meanMS("mlcg_ingest_seconds", "")
	l["serve.build_queue_wait_ms"] = meanMS("mlcg_build_queue_wait_seconds", "")
	l["serve.build_run_ms"] = meanMS("mlcg_build_run_seconds", "")
	l["serve.query_partition_ms"] = meanMS("mlcg_query_seconds", `{kind="partition"}`)
	l["serve.query_cluster_ms"] = meanMS("mlcg_query_seconds", `{kind="cluster"}`)
	serverQuery := (delta(`mlcg_query_seconds_sum{kind="partition"}`) + delta(`mlcg_query_seconds_sum{kind="cluster"}`)) * 1e3
	var clientQuery float64
	for _, v := range lg.query {
		clientQuery += v
	}
	if len(lg.query) > 0 {
		l["serve.http_overhead_ms"] = (clientQuery - serverQuery) / float64(len(lg.query))
	}
	if r := delta("mlcg_graphs_ingested_total") + delta("mlcg_graph_cache_hits_total"); r > 0 {
		l["serve.graph_cache_hit_ratio"] = delta("mlcg_graph_cache_hits_total") / r
	}
	if r := delta("mlcg_builds_requested_total"); r > 0 {
		l["serve.build_cache_hit_ratio"] = delta("mlcg_build_cache_hits_total") / r
	}
	l["serve.shed_429"] = float64(base.status[429] + lg.status[429])
	l["serve.refused_507"] = float64(base.status[507] + lg.status[507])

	// Coarsening inside the server, per completed build: run time, the
	// map/build phase split from the per-level histograms, and the kernel
	// counters the server folds from every request's trace.
	builds := delta("mlcg_builds_completed_total")
	if builds > 0 {
		l["coarsen.run_s"] = delta("mlcg_build_run_seconds_sum") / builds
		var mapS, buildS float64
		for name := range lg.metrics {
			switch {
			case strings.HasPrefix(name, "mlcg_build_level_map_seconds_sum"):
				mapS += delta(name)
			case strings.HasPrefix(name, "mlcg_build_level_build_seconds_sum"):
				buildS += delta(name)
			}
		}
		l["coarsen.map_s"] = mapS / builds
		l["coarsen.build_s"] = buildS / builds
		for ctr, m := range counterMetric {
			l[m] = delta("mlcg_ctr_"+ctr+"_total") / builds
		}
	}
	l["ingest_p50_ms"] = median(lg.ingest)
	l["build_tail_ms"] = tailOf(lg.build).Value
	l["query_tail_ms"] = tailOf(lg.query).Value
	l["obs.trace_overhead_frac"] = median(lg.chains)/median(base.chains) - 1
	rep.detail["tails"] = lg.tails()
}

// scrape reads the server's /metrics exposition into a series → value map.
func (sb *serveBench) scrape() (map[string]float64, error) {
	resp, err := sb.client.Get(sb.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, errors.New("malformed line " + line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, err
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}
