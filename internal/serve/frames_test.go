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

	"repro/internal/core"
	"repro/internal/gemm"
	"repro/internal/hw"
	"repro/internal/serve"
	"repro/internal/shard"
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
// semantics a real stream never shows.
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
	`{"x":tru}`, `{"x":nul}`, `{"frame":"done"}` + "\n", "\t{\"frame\":\"done\"}\r\n", "{\"frame\":\"done\"}\x00",
}

// deepLine nests n arrays in an unknown key of a done frame.
func deepLine(n int) string {
	return `{"frame":"done","x":` + strings.Repeat("[", n) + strings.Repeat("]", n) + `}`
}

// FuzzDecodeSweepFrame holds DecodeSweepFrame to encoding/json: on any line
// it never panics, it accepts exactly the lines json.Unmarshal accepts, and
// the frame it decodes is reflect.DeepEqual to json.Unmarshal's.
func FuzzDecodeSweepFrame(f *testing.F) {
	for _, line := range realFrames(f) {
		f.Add(line)
	}
	for _, line := range decodeCases {
		f.Add([]byte(line))
	}
	f.Add([]byte(deepLine(9999)))  // 10000 levels with the frame: accepted
	f.Add([]byte(deepLine(10000))) // one too many
	f.Fuzz(func(t *testing.T, line []byte) {
		var got, want serve.SweepFrame
		err := serve.DecodeSweepFrame(line, &got)
		jerr := json.Unmarshal(line, &want)
		if (err == nil) != (jerr == nil) {
			t.Fatalf("%q: DecodeSweepFrame error %v, json.Unmarshal error %v", line, err, jerr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			g, _ := json.Marshal(got)
			w, _ := json.Marshal(want)
			t.Fatalf("%q decodes to\n%s\njson.Unmarshal gives\n%s", line, g, w)
		}
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
// Shape and Config, and what rides json.Unmarshal — survives the encoder
// and DecodeSweepFrame. A field added to a type that crosses /sweep fails
// here, by name, until the decoder reads it.
func TestDecodeSweepFrameSetsEveryField(t *testing.T) {
	var want serve.SweepFrame
	fill(t, reflect.ValueOf(&want).Elem())
	line, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var got serve.SweepFrame
	if err := serve.DecodeSweepFrame(line, &got); err != nil {
		t.Fatal(err)
	}
	for _, path := range unset("Frame", reflect.ValueOf(got), reflect.ValueOf(want)) {
		t.Errorf("DecodeSweepFrame leaves %s unset or wrong", path)
	}
}

// BenchmarkDecodeSweepFrame times one real untraced result frame's
// decode, by DecodeSweepFrame and by the json.Decoder over the whole stream
// it replaces.
func BenchmarkDecodeSweepFrame(b *testing.B) {
	var lines [][]byte
	for _, line := range realFrames(b) {
		if bytes.Contains(line, []byte(`"frame":"result"`)) && !bytes.Contains(line, []byte(`"Trace"`)) {
			lines = append(lines, line)
		}
	}
	stream := bytes.Join(lines, nil)
	b.Run("decoder=DecodeSweepFrame", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(stream) / len(lines)))
		for i := 0; b.Loop(); i++ {
			var fr serve.SweepFrame
			if err := serve.DecodeSweepFrame(lines[i%len(lines)], &fr); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decoder=json.Decoder", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(stream) / len(lines)))
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
}
