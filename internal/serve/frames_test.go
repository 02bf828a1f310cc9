package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/gemm"
	"repro/internal/gpu"
	"repro/internal/hw"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/sim"
)

var (
	realFramesOnce sync.Once
	realFrameLines [][]byte
	realFramesErr  error
)

// realFrames returns the lines of real v2 replies: a replica's and a
// router's, DES and analytic, AR, RS and A2A at imbalance 1.3, a tuned
// sweep, a traced result, done frames and error frames with and without
// an index.
func realFrames(tb testing.TB) [][]byte {
	tb.Helper()
	realFramesOnce.Do(func() { realFrameLines, realFramesErr = buildRealFrames() })
	if realFramesErr != nil {
		tb.Fatal(realFramesErr)
	}
	return realFrameLines
}

func buildRealFrames() ([][]byte, error) {
	svc, err := serve.New(serve.Config{Plat: hw.RTX4090PCIe(), NGPUs: 2, CandidateLimit: 64})
	if err != nil {
		return nil, err
	}
	router, err := shard.NewRouter([]shard.Client{&shard.LocalClient{Svc: svc}})
	if err != nil {
		return nil, err
	}
	items := []serve.SweepItem{
		{M: 2048, N: 8192, K: 4096, Prim: "AR"},
		{M: 4096, N: 8192, K: 4096, Prim: "AR", Fidelity: serve.FidelityAnalytic},
		{M: 2048, N: 8192, K: 4096, Prim: "RS"},
		{M: 4096, N: 8192, K: 8192, Prim: "RS", Fidelity: serve.FidelityAnalytic},
		{M: 4096, N: 4096, K: 4096, Prim: "A2A", Imbalance: 1.3},
		{M: 4096, N: 4096, K: 4096, Prim: "A2A", Imbalance: 1.3, Fidelity: serve.FidelityAnalytic},
	}
	var lines [][]byte
	post := func(h http.Handler, req serve.SweepRequest) {
		body, _ := json.Marshal(req)
		hreq := httptest.NewRequest(http.MethodPost, "/sweep", bytes.NewReader(body))
		hreq.Header.Set("Accept", serve.ContentTypeNDJSON)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, hreq)
		for _, line := range bytes.SplitAfter(rec.Body.Bytes(), []byte("\n")) {
			if len(line) > 0 {
				lines = append(lines, line)
			}
		}
	}
	for _, h := range []http.Handler{serve.Handler(svc), router.Handler()} {
		post(h, serve.SweepRequest{Items: items})
		post(h, serve.SweepRequest{SweepSpec: serve.SweepSpec{Tune: true}, Items: items[:2]})
		post(h, serve.SweepRequest{Items: []serve.SweepItem{items[0], {M: 2048, N: 8192, K: 4096, Prim: "XX"}}})
	}
	traced, err := core.Run(context.Background(), core.Options{
		Plat: hw.RTX4090PCIe(), NGPUs: 2, Shape: gemm.Shape{M: 2048, N: 8192, K: 4096}, Prim: hw.AllReduce, Trace: true,
	})
	if err != nil {
		return nil, err
	}
	for _, fr := range []serve.SweepFrame{
		{Frame: serve.FrameResult, Index: 3, Fidelity: serve.FidelityDES, Result: &serve.SweepResult{
			Shape: "M2048-N8192-K4096", Primitive: "AllReduce", Partition: traced.Partition, Waves: traced.Waves,
			Fidelity: serve.FidelityDES, Result: traced,
		}},
		{Frame: serve.FrameError, Salvaged: 2, Error: &serve.ErrorBody{Message: "replica gone", Retryable: true}},
	} {
		line, err := json.Marshal(fr)
		if err != nil {
			return nil, err
		}
		lines = append(lines, append(line, '\n'))
	}
	return lines, nil
}

// decodeCases are hand-written lines for the corners of encoding/json's
// semantics a real stream never shows, and for broken grammar. None is a
// canonical line, so DecodeSweepFrame rejects every one.
var decodeCases = []string{
	// Escapes, surrogate pairs, lone surrogates, invalid UTF-8.
	`{"frame":"result","result":{"shape":"Mé😀𐀀x\ud800","primitive":"A\"R\\/\b\f\n\r\t\u0000"}}`,
	"{\"frame\":\"done\",\"result\":{\"shape\":\"\xff\xfe\xc3\",\"source\":\"\xe2\x82\",\"fidelity\":\"\xed\xa0\x80\"}}",
	`{"frame":"x","result":{"source":"\ud800A","shape":"\udc00"}}`,
	// Case-variant keys, including the non-ASCII folds of s and k.
	`{"FRAME":"done","Count":3,"SALVAGED":1}`,
	`{"frame":"result","result":{"SHAPE":"a","ſhape":"b","Result":{"latency":5,"groups":[{"bytes":1,"SIGNALAT":2}],"plan":{"shape":{"m":4096,"n":8192,"\u212a":4096},"cfg":{"tilem":128,"tilen":128,"swizzle":3},"rowtiles":32,"coltiles":64,"tileſ":2048}}}}`,
	`{"Frame":"done","index":1,"Index":2,"INDEX":3}`,
	// Repeated keys decode into the existing values.
	`{"frame":"result","result":{"partition":[1,2,3],"partition":[4],"partition":[null,null],"result":{"Groups":[{"Bytes":1,"SignalAt":2,"CommEnd":3},{"Bytes":4,"CommEnd":5},{"SignalAt":6}],"Groups":[{"Bytes":9}],"Groups":[{},null,{"CommEnd":7}],"Partition":[1],"Partition":[],"Partition":[null]}},"result":{"waves":2}}`,
	`{"frame":"result","result":{"result":{"Plan":{"Shape":{"M":128,"N":128,"K":1},"Cfg":{"TileM":128,"TileN":128},"RowTiles":1,"ColTiles":1,"Tiles":1},"Plan":{"Shape":{"M":256,"N":128,"K":1},"Cfg":{"TileM":128,"TileN":128},"RowTiles":2,"ColTiles":1,"Tiles":2}}}}`,
	`{"frame":"result","result":{"result":{"Trace":[{"Device":1,"Name":"a"}],"Trace":[{"SMs":2}]}},"error":{"message":"a","index":1},"error":{"retryable":true}}`,
	// null: untouched scalars and structs, nil pointers and slices.
	`null`,
	`{"frame":null,"index":null,"result":null,"error":null}`,
	`{"result":{"shape":"a","shape":null,"partition":null,"result":{"Plan":null,"Groups":[null],"Trace":null,"Latency":null}}}`,
	`{"result":{"result":{"Plan":{"Shape":null,"Cfg":null,"RowTiles":null}}}}`,
	// Integers: a fraction, an exponent or an overflow is rejected.
	`{"index":-0,"count":-9223372036854775808,"salvaged":9223372036854775807}`,
	`{"index":1.0}`,
	`{"index":1e2}`,
	`{"index":9223372036854775808}`,
	`{"index":"1"}`,
	// Unknown keys of every kind are skipped.
	`{"frame":"done","owner":0,"replica":1,"x":{"a":[true,false,null,-1.5e-3,"s",{}]},"y":[]}`,
	// Plans are rebuilt and checked.
	`{"result":{"result":{"Plan":{"Shape":{"M":128,"N":128,"K":1},"Cfg":{"TileM":128,"TileN":128},"Tiles":7}}}}`,
	`{"result":{"result":{"Plan":[]}}}`,
	// Grammar.
	``, ` `, `{`, `{"frame":"done"} {"frame":"done"}`, `{"frame":"done",}`, `{"frame" "done"}`, `{'frame':1}`,
	"{\"frame\":\"do\ne\"}", `{"frame":"\x"}`, `{"frame":"\u12"}`, `{"index":01}`, `{"index":-}`, `{"index":1.}`,
	`{"x":tru}`, `{"x":nul}`, "\t{\"frame\":\"done\"}\r\n", "{\"frame\":\"done\"}\x00",
}

// lineEndCases are canonical lines but for the line's end.
var lineEndCases = []string{
	`{"frame":"done","count":2}`, "{\"frame\":\"done\",\"count\":2}\n\n", "{\"frame\":\"done\",\"count\":2} \n", "{\"frame\":\"done\",\"count\":2}\r\n",
}

// FuzzDecodeSweepFrame holds DecodeSweepFrame to the canonical-line
// contract. On any line it never panics. A line it accepts is the line
// appendFrame writes for the frame it decoded (for a router line, for the
// routed frame json.Unmarshal decodes), and json.Unmarshal decodes it to
// the same frame. The permissive corners in decodeCases seed it as lines
// it must now reject.
func FuzzDecodeSweepFrame(f *testing.F) {
	for _, line := range realFrames(f) {
		f.Add(line)
	}
	for _, line := range append(decodeCases, lineEndCases...) {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var got serve.SweepFrame
		if serve.DecodeSweepFrame(line, &got) != nil {
			return
		}
		var want serve.SweepFrame
		if err := json.Unmarshal(line, &want); err != nil || !reflect.DeepEqual(got, want) {
			g, _ := json.Marshal(got)
			w, _ := json.Marshal(want)
			t.Fatalf("%q decodes to\n%s\njson.Unmarshal gives (error %v)\n%s", line, g, err, w)
		}
		if sameLine(line, serve.AppendFrame(nil, got)) {
			return
		}
		var routed serve.Frame[shard.SweepResult]
		if err := json.Unmarshal(line, &routed); err != nil || !sameLine(line, serve.AppendFrame(nil, routed)) {
			t.Fatalf("accepted %q, which appendFrame writes as neither\n%s\nnor, routed,\n%s", line, serve.AppendFrame(nil, got), serve.AppendFrame(nil, routed))
		}
	})
}

// invalidByte is the escape encoding/json writes for a byte of invalid
// UTF-8; it decodes to U+FFFD.
var invalidByte = func() []byte {
	b, _ := json.Marshal("\xff")
	return b[1 : len(b)-1]
}()

// sameLine reports whether line is canon, the line appendFrame writes for
// line's decoded frame, except where line holds invalidByte and canon
// U+FFFD: such a line is the one appendFrame writes for a string that held
// a byte of invalid UTF-8.
func sameLine(line, canon []byte) bool {
	for len(line) > 0 && len(canon) > 0 {
		if line[0] == canon[0] {
			line, canon = line[1:], canon[1:]
			continue
		}
		l, ok1 := bytes.CutPrefix(line, invalidByte)
		c, ok2 := bytes.CutPrefix(canon, []byte(string(utf8.RuneError)))
		if !ok1 || !ok2 {
			return false
		}
		line, canon = l, c
	}
	return len(line) == len(canon)
}

// The lines the decoder before the canonical contract accepted as
// json.Unmarshal does — case-folded, repeated and unknown keys, null on
// any field, variant escapes and numbers — are rejected now, newline or
// not, and so is a canonical line with any other end than one newline.
func TestDecodeSweepFrameRejectsNonCanonicalLines(t *testing.T) {
	lines := lineEndCases
	for _, line := range decodeCases {
		lines = append(lines, line, strings.TrimSuffix(line, "\n")+"\n")
	}
	for _, line := range lines {
		var fr serve.SweepFrame
		if err := serve.DecodeSweepFrame([]byte(line), &fr); err == nil {
			t.Errorf("%q accepted", line)
		}
	}
}

// frameGen builds frames from fuzz bytes, reading past the end as zeros.
type frameGen struct{ data []byte }

func (g *frameGen) byte() byte {
	if len(g.data) == 0 {
		return 0
	}
	b := g.data[0]
	g.data = g.data[1:]
	return b
}

// int is zero, negative, small or large.
func (g *frameGen) int() int {
	switch b := g.byte(); b % 4 {
	case 0:
		return 0
	case 1:
		return -int(g.byte()) - 1
	case 2:
		return int(g.byte())
	default:
		return int(b)<<56 | int(g.byte())<<8 | int(g.byte())
	}
}

// str takes up to 7 raw bytes: <>&, control bytes, invalid UTF-8, anything.
func (g *frameGen) str() string {
	n := min(int(g.byte()%8), len(g.data))
	s := string(g.data[:n])
	g.data = g.data[n:]
	return s
}

// ints is nil, empty or up to three integers.
func (g *frameGen) ints() []int {
	switch n := g.byte() % 5; n {
	case 0:
		return nil
	default:
		s := make([]int, n-1)
		for i := range s {
			s[i] = g.int()
		}
		return s
	}
}

func (g *frameGen) sweepResult() *serve.SweepResult {
	r := &serve.SweepResult{
		Shape: g.str(), Primitive: g.str(), Partition: g.ints(), Waves: g.int(),
		Fidelity: g.str(), PredictedNs: int64(g.int()), Source: g.str(),
	}
	if g.byte()%4 == 0 {
		return r
	}
	r.Result = &core.Result{
		Partition: g.ints(), WaveSize: g.int(), Waves: g.int(),
		Latency: sim.Time(g.int()), GEMMEnd: sim.Time(g.int()), Fidelity: core.Fidelity(g.str()),
	}
	if b := g.byte(); b%2 == 1 {
		p, err := gemm.NewPlan(gemm.Shape{M: 128 << (b >> 5), N: 128 * int(1+g.byte()%8), K: 1 + g.int()&0xffff},
			gemm.Config{TileM: 128, TileN: 128, Swizzle: g.int()})
		if err != nil {
			panic(err)
		}
		r.Result.Plan = p
	}
	if n := g.byte() % 5; n > 0 {
		r.Result.Groups = make([]core.GroupTiming, n-1)
		for i := range r.Result.Groups {
			r.Result.Groups[i] = core.GroupTiming{Bytes: int64(g.int()), SignalAt: sim.Time(g.int()), CommEnd: sim.Time(g.int())}
		}
	}
	for range g.byte() % 3 {
		r.Result.Trace = append(r.Result.Trace, gpu.Span{Device: g.int(), Stream: g.str(), Name: g.str(), Start: sim.Time(g.int()), SMs: g.int()})
	}
	return r
}

func (g *frameGen) frame() serve.SweepFrame {
	fr := serve.SweepFrame{Frame: g.str(), Index: g.int(), Fidelity: g.str()}
	if g.byte()%2 == 1 {
		fr.Result = g.sweepResult()
	}
	fr.Count, fr.Salvaged = g.int(), g.int()
	if g.byte()%2 == 1 {
		fr.Error = &serve.ErrorBody{Message: g.str(), Retryable: g.byte()%2 == 1}
		if g.byte()%2 == 1 {
			i := g.int()
			fr.Error.Index = &i
		}
		if g.byte()%4 == 1 {
			fr.Error.Results = []serve.SweepResult{*g.sweepResult()}
		}
	}
	return fr
}

// checkAppendFrame holds appendFrame byte-identical to json.Marshal plus
// the newline, and DecodeSweepFrame to reading the line back as
// json.Unmarshal does.
func checkAppendFrame[R any](t *testing.T, fr serve.Frame[R], line []byte) {
	t.Helper()
	want, err := json.Marshal(fr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(line, append(want, '\n')) {
		t.Fatalf("appendFrame writes\n%s\njson.Marshal\n%s", line, want)
	}
	var got, back serve.SweepFrame
	if err := serve.DecodeSweepFrame(line, &got); err != nil {
		t.Fatalf("%s: %v", line, err)
	}
	if err := json.Unmarshal(line, &back); err != nil || !reflect.DeepEqual(got, back) {
		t.Fatalf("%s decodes differently from json.Unmarshal (%v)", line, err)
	}
}

// FuzzAppendFrame holds appendFrame to encoding/json on arbitrary frames
// of both result types, a replica's and the router's: nil and empty
// slices, a nil or a real plan, zero and negative integers, and strings
// with <>&, control bytes and invalid UTF-8. Each line is json.Marshal's
// bytes plus the newline, and DecodeSweepFrame reads it back to what
// json.Unmarshal gives. A router result that lost its owner or replica
// would differ from json.Marshal.
func FuzzAppendFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x03res\x01\x05<a&b>\x04\x02\x07\x03\x01\x01\x02\x03\x01\x02\x03\x03\xff\xfe\x00\x01\x03\x01\x02\x07\x05\x02\x09\x03\x01\x02\x03\x02"))
	for _, line := range realFrames(f) {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &frameGen{data: data}
		fr := g.frame()
		checkAppendFrame(t, fr, serve.AppendFrame(nil, fr))
		routed := serve.Frame[shard.SweepResult]{Frame: fr.Frame, Index: fr.Index, Fidelity: fr.Fidelity, Count: fr.Count, Salvaged: fr.Salvaged, Error: fr.Error}
		if fr.Result != nil {
			routed.Result = &shard.SweepResult{SweepResult: *fr.Result, Owner: g.int(), Replica: g.int()}
		}
		checkAppendFrame(t, routed, serve.AppendFrame(nil, routed))
	})
}

// fill sets every exported field json writes to a non-zero value, two
// elements per slice; a plan is a real one, since decoders rebuild plans.
func fill(t *testing.T, v reflect.Value) {
	if v.Type() == reflect.TypeOf((*gemm.Plan)(nil)) {
		p, err := gemm.NewPlan(gemm.Shape{M: 4096, N: 8192, K: 4096}, gemm.Config{TileM: 128, TileN: 64, Swizzle: 3})
		if err != nil {
			t.Fatal(err)
		}
		v.Set(reflect.ValueOf(p))
		return
	}
	switch v.Kind() {
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(t, v.Elem())
	case reflect.Struct:
		for i := range v.NumField() {
			if f := v.Type().Field(i); f.IsExported() && f.Tag.Get("json") != "-" {
				fill(t, v.Field(i))
			}
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := range 2 {
			fill(t, v.Index(i))
		}
	case reflect.String:
		v.SetString("s")
	case reflect.Int, reflect.Int64:
		v.SetInt(7)
	case reflect.Bool:
		v.SetBool(true)
	default:
		t.Fatalf("fill: no value for a %v", v.Type())
	}
}

// unset walks want's exported fields and reports, by path, each one got
// leaves zero or decodes differently.
func unset(path string, got, want reflect.Value) []string {
	switch want.Kind() {
	case reflect.Pointer:
		if got.IsNil() {
			return []string{path}
		}
		return unset(path, got.Elem(), want.Elem())
	case reflect.Struct:
		var out []string
		for i := range want.NumField() {
			if f := want.Type().Field(i); f.IsExported() && f.Tag.Get("json") != "-" {
				out = append(out, unset(path+"."+f.Name, got.Field(i), want.Field(i))...)
			}
		}
		return out
	case reflect.Slice:
		if got.Len() != want.Len() {
			return []string{path}
		}
		var out []string
		for i := range want.Len() {
			out = append(out, unset(fmt.Sprintf("%s[%d]", path, i), got.Index(i), want.Index(i))...)
		}
		return out
	}
	if got.IsZero() || !got.Equal(want) {
		return []string{path}
	}
	return nil
}

// Every exported field of every type a v2 frame carries — serve.Frame,
// serve.SweepResult, core.Result, core.GroupTiming, gemm.Plan and its
// Shape and Config, and what rides encoding/json — survives appendFrame
// and DecodeSweepFrame, and appendFrame writes json.Marshal's bytes for
// a replica's frame and for the router's. A field added to a type that
// crosses /sweep fails here, by name, until the codec writes and reads it.
func TestDecodeSweepFrameSetsEveryField(t *testing.T) {
	var want serve.SweepFrame
	fill(t, reflect.ValueOf(&want).Elem())
	line := serve.AppendFrame(nil, want)
	checkAppendFrame(t, want, line)
	var got serve.SweepFrame
	if err := serve.DecodeSweepFrame(line, &got); err != nil {
		t.Fatal(err)
	}
	for _, path := range unset("Frame", reflect.ValueOf(got), reflect.ValueOf(want)) {
		t.Errorf("DecodeSweepFrame leaves %s unset or wrong", path)
	}
	var routed serve.Frame[shard.SweepResult]
	fill(t, reflect.ValueOf(&routed).Elem())
	checkAppendFrame(t, routed, serve.AppendFrame(nil, routed))
}

// BenchmarkDecodeSweepFrame times one real untraced result frame's
// decode, by DecodeSweepFrame and by the json.Decoder over the whole stream
// it replaces, and its encode, by appendFrame and by the json.Encoder it
// replaces.
func BenchmarkDecodeSweepFrame(b *testing.B) {
	var lines [][]byte
	for _, line := range realFrames(b) {
		if bytes.Contains(line, []byte(`"frame":"result"`)) && !bytes.Contains(line, []byte(`"Trace"`)) {
			lines = append(lines, line)
		}
	}
	stream := bytes.Join(lines, nil)
	frames := make([]serve.SweepFrame, len(lines))
	for i, line := range lines {
		if err := json.Unmarshal(line, &frames[i]); err != nil {
			b.Fatal(err)
		}
	}
	perFrame := int64(len(stream) / len(lines))
	b.Run("decoder=DecodeSweepFrame", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(perFrame)
		for i := 0; b.Loop(); i++ {
			var fr serve.SweepFrame
			if err := serve.DecodeSweepFrame(lines[i%len(lines)], &fr); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decoder=json.Decoder", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(perFrame)
		var dec *json.Decoder
		for i := 0; b.Loop(); i++ {
			if i%len(lines) == 0 {
				dec = json.NewDecoder(bytes.NewReader(stream))
			}
			var fr serve.SweepFrame
			if err := dec.Decode(&fr); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoder=appendFrame", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(perFrame)
		var buf []byte
		for i := 0; b.Loop(); i++ {
			buf = serve.AppendFrame(buf[:0], frames[i%len(frames)])
		}
	})
	b.Run("encoder=json.Encoder", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(perFrame)
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for i := 0; b.Loop(); i++ {
			buf.Reset()
			if err := enc.Encode(frames[i%len(frames)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// discardWriter is a ResponseWriter that drops the reply's bytes.
type discardWriter struct{ h http.Header }

func (w discardWriter) Header() http.Header       { return w.h }
func (discardWriter) WriteHeader(int)             {}
func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (discardWriter) Flush()                      {}

// Writing a result frame allocates nothing once the stream's buffer holds
// the longest frame, for a replica's result and for the router's
// attributed one alike: the frame refers to the result without moving it
// to the heap.
func TestSweepStreamResultFramesAllocateNothing(t *testing.T) {
	var results []serve.SweepResult
	var routed []shard.SweepResult
	for _, line := range realFrames(t) {
		var fr serve.SweepFrame
		if err := json.Unmarshal(line, &fr); err != nil {
			t.Fatal(err)
		}
		if fr.Frame == serve.FrameResult && len(fr.Result.Result.Trace) == 0 {
			results = append(results, *fr.Result)
			routed = append(routed, shard.SweepResult{SweepResult: *fr.Result, Owner: len(routed) % 2, Replica: 1})
		}
	}
	replica := serve.NewSweepStream[serve.SweepResult](discardWriter{h: http.Header{}})
	router := serve.NewSweepStream[shard.SweepResult](discardWriter{h: http.Header{}})
	for name, write := range map[string]func(i int) error{
		"replica": func(i int) error { return replica.Result(i, results[i%len(results)]) },
		"router":  func(i int) error { return router.Result(i, routed[i%len(routed)]) },
	} {
		for i := range results {
			if err := write(i); err != nil {
				t.Fatal(err)
			}
		}
		i := 0
		if n := testing.AllocsPerRun(100, func() { _ = write(i); i++ }); n != 0 {
			t.Errorf("%s: %v allocations per result frame, want 0", name, n)
		}
	}
}
