package bench

import (
	"bytes"
	"fmt"

	"mlcg/internal/coarsen"
	"mlcg/internal/gen"
	"mlcg/internal/graph"
	"mlcg/internal/hierfmt"
)

// The io experiments record ingest and persistence bandwidth — the
// end-to-end tax of getting graphs into and hierarchies out of the
// process, measured in MB/s (10^6 bytes of on-the-wire format per second
// of wall time). Three ingest formats are compared on the same graph:
//
//   - "edgelist": the sequential text parser (graph.ReadEdgeList)
//   - "edgelist-stream": the sharded parallel text parser
//     (graph.StreamEdges) at each configured worker count
//   - "binary": the legacy length-prefixed CSR container (graph.ReadBinary)
//   - "mlcg": the versioned hierfmt container (docs/FORMAT.md)
//
// and the "hierio" experiment times hierfmt.Save/Load of a full coarsening
// hierarchy, raw and delta-varint. Bandwidth is computed against the bytes
// actually read or written, so the varint rows divide by a smaller byte
// count — compare them through io_bytes, which records the footprint.

// ioGraph builds the fixed measurement graph: an RMAT instance whose
// skewed degrees exercise both the text tokenizer's long rows and the
// varint coder's run-length spread. Scale bumps it for -scale runs.
func ioGraph(scale int) (*graph.Graph, string) {
	s := 15
	if scale > 1 {
		s = 16
	}
	return gen.RMAT(s, 8, 42), fmt.Sprintf("rmat%d", s)
}

// measureIOBandwidth produces the "ingest" and "hierio" metric rows.
func measureIOBandwidth(cfg RunConfig) ([]Metric, error) {
	runs := cfg.Runs
	if runs <= 0 {
		runs = 3
	}
	g, inst := ioGraph(cfg.Scale)

	var out []Metric
	mk := func(experiment, format string, workers int, name, unit string, dir Direction, v float64, samples []float64) {
		out = append(out, Metric{
			Experiment: experiment, Instance: inst, Mapper: "-", Builder: format,
			Workers: workers, Name: name, Unit: unit, Direction: dir,
			Value: v, Samples: samples,
		})
	}
	// ingestRow times one parse of data and records MB/s plus the byte
	// footprint of the on-the-wire format.
	ingestRow := func(format string, workers int, data []byte, parse func([]byte) (*graph.Graph, error)) error {
		d, raw, err := medianOf(runs, func() error {
			g2, err := parse(data)
			if err != nil {
				return err
			}
			if g2.N() != g.N() || g2.M() != g.M() {
				return fmt.Errorf("bench: %s ingest changed the graph (n=%d m=%d, want n=%d m=%d)",
					format, g2.N(), g2.M(), g.N(), g.M())
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("bench: ingest %s: %w", format, err)
		}
		mk("ingest", format, workers, "ingest_mbps", "MB/s", HigherIsBetter, float64(len(data))/1e6/d.Seconds(), raw)
		mk("ingest", format, workers, "io_bytes", "bytes", Informational, float64(len(data)), nil)
		return nil
	}

	var text bytes.Buffer
	if err := g.WriteEdgeList(&text); err != nil {
		return nil, err
	}
	if err := ingestRow("edgelist", 1, text.Bytes(), func(b []byte) (*graph.Graph, error) {
		return graph.ReadEdgeList(bytes.NewReader(b))
	}); err != nil {
		return nil, err
	}
	for _, w := range resolvedWorkers(cfg.Workers) {
		w := w
		if err := ingestRow("edgelist-stream", w, text.Bytes(), func(b []byte) (*graph.Graph, error) {
			return graph.StreamEdges(bytes.NewReader(b), w)
		}); err != nil {
			return nil, err
		}
	}
	var bin bytes.Buffer
	if err := g.WriteBinary(&bin); err != nil {
		return nil, err
	}
	if err := ingestRow("binary", 1, bin.Bytes(), func(b []byte) (*graph.Graph, error) {
		return graph.ReadBinary(bytes.NewReader(b))
	}); err != nil {
		return nil, err
	}
	var mlcg bytes.Buffer
	if err := hierfmt.SaveGraph(&mlcg, g, hierfmt.SaveOptions{}); err != nil {
		return nil, err
	}
	if err := ingestRow("mlcg", 1, mlcg.Bytes(), func(b []byte) (*graph.Graph, error) {
		g2, _, err := hierfmt.LoadGraph(b, hierfmt.LoadOptions{})
		return g2, err
	}); err != nil {
		return nil, err
	}

	// Hierarchy persistence: save and load a real coarsening hierarchy in
	// the container format, raw sections and delta-varint adjacency.
	c := &coarsen.Coarsener{Mapper: coarsen.HEC{}, Builder: &coarsen.AutoConstruct{}, Seed: 42, Workers: 1}
	h, err := c.Run(g)
	if err != nil {
		return nil, err
	}
	for _, enc := range []struct {
		format string
		opt    hierfmt.SaveOptions
	}{
		{"raw", hierfmt.SaveOptions{}},
		{"varint", hierfmt.SaveOptions{CompressAdj: true}},
	} {
		var buf bytes.Buffer
		if err := hierfmt.Save(&buf, h, enc.opt); err != nil {
			return nil, err
		}
		size := float64(buf.Len())
		d, raw, err := medianOf(runs, func() error {
			var b bytes.Buffer
			b.Grow(buf.Len())
			return hierfmt.Save(&b, h, enc.opt)
		})
		if err != nil {
			return nil, fmt.Errorf("bench: hierio save %s: %w", enc.format, err)
		}
		mk("hierio", enc.format, 1, "save_mbps", "MB/s", HigherIsBetter, size/1e6/d.Seconds(), raw)
		data := buf.Bytes()
		d, raw, err = medianOf(runs, func() error {
			h2, _, err := hierfmt.Load(data, hierfmt.LoadOptions{})
			if err != nil {
				return err
			}
			if h2.Levels() != h.Levels() {
				return fmt.Errorf("bench: hierio load changed level count")
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("bench: hierio load %s: %w", enc.format, err)
		}
		mk("hierio", enc.format, 1, "load_mbps", "MB/s", HigherIsBetter, size/1e6/d.Seconds(), raw)
		mk("hierio", enc.format, 1, "io_bytes", "bytes", Informational, size, nil)
	}
	return out, nil
}
