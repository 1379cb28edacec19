package graph

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// edgeListText renders a messy-but-valid edge list: comments, blank lines,
// mixed weight columns, tabs, CRLF — everything ReadEdgeList tolerates.
func edgeListText(n int, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	type pair struct{ u, v int32 }
	seen := map[pair]bool{}
	var lines []string
	for i := 0; i < n*4; i++ {
		u, v := rng.Int31n(int32(n)), rng.Int31n(int32(n))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if seen[pair{u, v}] {
			continue
		}
		seen[pair{u, v}] = true
		switch rng.Intn(4) {
		case 0:
			lines = append(lines, fmt.Sprintf("%d %d", u, v))
		case 1:
			lines = append(lines, fmt.Sprintf("%d\t%d\t%d", u, v, 1+rng.Intn(9)))
		case 2:
			lines = append(lines, fmt.Sprintf("  %d %d %d\r", u, v, 1+rng.Intn(9)))
		default:
			lines = append(lines, fmt.Sprintf("%d %d %d", u, v, 1+rng.Intn(9)))
		}
		if rng.Intn(10) == 0 {
			lines = append(lines, "# comment", "")
		}
	}
	fmt.Fprintf(&b, "%% leading comment\n\n%d %d\n", n, len(seen))
	b.WriteString(strings.Join(lines, "\n"))
	if seed%2 == 0 {
		b.WriteString("\n") // half the cases end without a newline
	}
	return b.String()
}

func TestStreamEdgesMatchesReadEdgeList(t *testing.T) {
	for _, n := range []int{5, 60, 500} {
		for seed := int64(0); seed < 4; seed++ {
			text := edgeListText(n, seed)
			want, err := ReadEdgeList(strings.NewReader(text))
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []int{1, 2, 8} {
				got, err := StreamEdges(strings.NewReader(text), p)
				if err != nil {
					t.Fatalf("n=%d seed=%d p=%d: %v", n, seed, p, err)
				}
				if !Equal(want, got) {
					t.Fatalf("n=%d seed=%d p=%d: StreamEdges differs from ReadEdgeList", n, seed, p)
				}
			}
		}
	}
}

// TestStreamEdgesSharding forces the multi-block carry paths: a tiny read
// size makes every boundary land mid-line, and a drip reader adds short
// reads on top. The result must still match the sequential parser exactly.
func TestStreamEdgesSharding(t *testing.T) {
	text := edgeListText(300, 7)
	want, err := ReadEdgeList(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	defer func(old int) { streamChunk = old }(streamChunk)
	for _, chunk := range []int{64, 129, 4096} {
		streamChunk = chunk
		got, err := StreamEdges(&drip{data: []byte(text), step: 13}, 4)
		if err != nil {
			t.Fatalf("chunk=%d: %v", chunk, err)
		}
		if !Equal(want, got) {
			t.Fatalf("chunk=%d: StreamEdges differs from ReadEdgeList", chunk)
		}
	}
	// A line longer than the read size must fail cleanly, not mis-parse.
	streamChunk = 8
	if _, err := StreamEdges(strings.NewReader(text), 2); err == nil {
		t.Error("over-long line accepted at tiny shard size")
	}
}

// TestReadersShareLineLimit holds both text readers to one line limit: a
// line whose newline makes it streamChunk bytes is accepted and one byte
// more is rejected, anywhere in the input. At the default read size a
// 2 MiB comment line, over the 1 MiB ReadEdgeList once allowed, parses in
// both.
func TestReadersShareLineLimit(t *testing.T) {
	check := func(name, in string, ok bool) {
		t.Helper()
		if _, err := ReadEdgeList(strings.NewReader(in)); (err == nil) != ok {
			t.Errorf("%s: ReadEdgeList err = %v, want accepted = %v", name, err, ok)
		}
		for _, p := range []int{1, 2} {
			if _, err := StreamEdges(&drip{data: []byte(in), step: 1000}, p); (err == nil) != ok {
				t.Errorf("%s: StreamEdges p=%d err = %v, want accepted = %v", name, p, err, ok)
			}
		}
	}
	comment := func(k int) string { return "#" + strings.Repeat("x", k-1) }
	check("2 MiB line", "2 1\n"+comment(2<<20)+"\n0 1\n", true)
	check("read-size line", "2 1\n"+comment(streamChunk)+"\n0 1\n", false)

	defer func(old int) { streamChunk = old }(streamChunk)
	streamChunk = 64
	for _, k := range []int{63, 64} {
		ok := k < 64
		check(fmt.Sprintf("%d-byte line before the header", k), comment(k)+"\n2 1\n0 1\n", ok)
		check(fmt.Sprintf("%d-byte line in the body", k), "2 1\n0 1\n"+comment(k)+"\n", ok)
		check(fmt.Sprintf("%d-byte unterminated last line", k), "2 1\n0 1\n"+comment(k), ok)
	}
}

type drip struct {
	data []byte
	step int
}

func (d *drip) Read(p []byte) (int, error) {
	if len(d.data) == 0 {
		return 0, io.EOF
	}
	k := min(d.step, min(len(p), len(d.data)))
	copy(p, d.data[:k])
	d.data = d.data[k:]
	return k, nil
}

func TestStreamEdgesErrors(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"empty", ""},
		{"comment-only", "# nothing\n"},
		{"bad-header", "a b\n"},
		{"header-extra-field", "3 2 9\n0 1\n1 2\n"},
		{"implausible-n", fmt.Sprintf("%d 1\n0 1\n", MaxParseVertices+1)},
		{"bad-edge", "2 1\n0 x\n"},
		{"edge-extra-field", "2 1\n0 1 2 3\n"},
		{"self-loop", "2 1\n1 1\n"},
		{"out-of-range", "2 1\n0 5\n"},
		{"edge-count-lie", "3 5\n0 1\n1 2\n"},
		{"overflow-weight", "2 1\n0 1 99999999999999999999\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := StreamEdges(strings.NewReader(tc.in), 2); err == nil {
				t.Error("invalid input accepted")
			}
			// ReadEdgeList must agree that it's invalid.
			if _, err := ReadEdgeList(strings.NewReader(tc.in)); err == nil {
				t.Error("ReadEdgeList accepted what StreamEdges should reject")
			}
		})
	}
}

// refParse splits an edge list the way ReadEdgeList does, without
// building: the header's n and the edges in input order.
func refParse(t testing.TB, text string) (int, []Edge) {
	t.Helper()
	n := -1
	var edges []Edge
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || f[0][0] == '#' || f[0][0] == '%' {
			continue
		}
		if n < 0 {
			n, _ = strconv.Atoi(f[0])
			continue
		}
		u, _ := strconv.Atoi(f[0])
		v, _ := strconv.Atoi(f[1])
		w := 1
		if len(f) == 3 {
			w, _ = strconv.Atoi(f[2])
		}
		edges = append(edges, Edge{int32(u), int32(v), int64(w)})
	}
	return n, edges
}

// TestStreamEdgesDeterminism pins StreamEdges to the global-sort reference
// bit for bit at p = 1, 2, 4 and 8, over many read blocks and pieces, and
// the parallel kernel itself at every one of those worker counts. Run under
// -race by make test-determinism.
func TestStreamEdgesDeterminism(t *testing.T) {
	defer func(c, m int) { streamChunk, minPiece = c, m }(streamChunk, minPiece)
	streamChunk, minPiece = 64<<10, 4<<10
	for _, n := range []int{50, 3000} {
		text := edgeListText(n, int64(n))
		nn, edges := refParse(t, text)
		want, err := refFromEdges(nn, edges)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{1, 2, 4, 8} {
			got, err := StreamEdges(strings.NewReader(text), p)
			if err != nil {
				t.Fatalf("n=%d p=%d: %v", n, p, err)
			}
			if !sameCSR(got, want) {
				t.Fatalf("n=%d p=%d: StreamEdges differs from the reference", n, p)
			}
			if p > 1 && !sameCSR(buildPar(nn, [][]Edge{edges}, len(edges), p), want) {
				t.Fatalf("n=%d p=%d: parallel kernel differs from the reference", n, p)
			}
		}
	}
}

// FuzzStreamEdges holds StreamEdges to ReadEdgeList: at p = 1 and 4, with
// tiny pieces and a read size shrunk until the longest line just fits and
// then one byte below that, both must accept or reject alike and accepted
// inputs must give identical graphs. The first seeds separate fields by
// white space other than space, tab and CR, which only ReadEdgeList used
// to accept.
func FuzzStreamEdges(f *testing.F) {
	for _, s := range []string{
		"2 1\n0\v1\n",
		"2 1\n0\f1\n",
		"2 1\n0\u00851\n",
		"2 1\n0\u00a01\n",
		"2\v1\n0 1\n",
		"% c\n\n3 2\n0 1 5\r\n\t1\t2\n# end",
		"3 2\n0 1\n0 1\n",
		"2 1\n+0 -1\n",
		"2 1\n0 1 99999999999999999999\n",
		"2 1\n0 1 2 3\n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		if headerTooBigForFuzz(in) {
			t.Skip()
		}
		longest := 0
		for _, line := range strings.Split(in, "\n") {
			longest = max(longest, len(line))
		}
		defer func(c, m int) { streamChunk, minPiece = c, m }(streamChunk, minPiece)
		minPiece = 1
		for _, chunk := range []int{longest + 1, max(longest, 1)} {
			streamChunk = chunk
			want, werr := ReadEdgeList(strings.NewReader(in))
			for _, p := range []int{1, 4} {
				got, err := StreamEdges(strings.NewReader(in), p)
				if (err == nil) != (werr == nil) {
					t.Fatalf("chunk=%d p=%d: StreamEdges err %v, ReadEdgeList err %v\ninput: %q", chunk, p, err, werr, in)
				}
				if err == nil && !sameCSR(got, want) {
					t.Fatalf("chunk=%d p=%d: StreamEdges and ReadEdgeList built different graphs\ninput: %q", chunk, p, in)
				}
			}
		}
	})
}

func TestParseInt(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		ok   bool
	}{
		{"0", 0, true}, {"7", 7, true}, {"-3", -3, true}, {"+9", 9, true},
		{"007", 7, true}, {"2147483647", 2147483647, true},
		{"9223372036854775807", 1<<63 - 1, true},
		{"9223372036854775808", 0, false}, // overflow
		{"", 0, false}, {"-", 0, false}, {"1x", 0, false}, {" 1", 0, false},
	}
	for _, tc := range cases {
		got, ok := parseInt([]byte(tc.in))
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("parseInt(%q) = %d,%v; want %d,%v", tc.in, got, ok, tc.want, tc.ok)
		}
	}
}

func BenchmarkIngestText(b *testing.B) {
	// A ~2 MB synthetic list, rendered once.
	data := []byte(edgeListText(20000, 1))
	b.Run("ReadEdgeList", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := ReadEdgeList(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, p := range []int{1, 4} {
		b.Run(fmt.Sprintf("StreamEdges-p%d", p), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := StreamEdges(bytes.NewReader(data), p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
