package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/gemm"
	"repro/internal/hw"
	"repro/internal/sim"
)

// A v2 line is the canonical JSON of its frame: the bytes json.Encoder
// writes for it — fields in struct order, omitempty fields absent when
// empty, strings HTML-escaped, no whitespace — and one trailing newline.
// appendFrame writes such lines without reflection and DecodeSweepFrame
// reads them back, rejecting every other line. The rare values, an error
// body, a Trace and a string that needs escapes, go through encoding/json
// on both sides, and the reader checks that their bytes are canonical.

// appendFrame appends fr's v2 line to b.
func appendFrame[R sweepResult](b []byte, fr Frame[R]) []byte {
	b = appendString(append(b, `{"frame":`...), fr.Frame)
	if fr.Index != 0 {
		b = appendInt(b, `,"index":`, int64(fr.Index))
	}
	if fr.Fidelity != "" {
		b = appendString(append(b, `,"fidelity":`...), fr.Fidelity)
	}
	if fr.Result != nil {
		b = (*fr.Result).AppendJSON(append(b, `,"result":`...))
	}
	if fr.Count != 0 {
		b = appendInt(b, `,"count":`, int64(fr.Count))
	}
	if fr.Salvaged != 0 {
		b = appendInt(b, `,"salvaged":`, int64(fr.Salvaged))
	}
	if fr.Error != nil {
		// By value, as appendString copies: no pointer of fr reaches the
		// heap, so neither does the result fr.Result points to.
		b = appendMarshal(append(b, `,"error":`...), *fr.Error)
	}
	return append(b, "}\n"...)
}

// AppendJSON appends r's canonical JSON, the bytes json.Marshal writes for
// it. A type embedding SweepResult with fields of its own must define its
// own AppendJSON: the promoted one drops them.
func (r SweepResult) AppendJSON(b []byte) []byte {
	b = appendString(append(b, `{"shape":`...), r.Shape)
	b = appendString(append(b, `,"primitive":`...), r.Primitive)
	b = appendInts(append(b, `,"partition":`...), r.Partition)
	b = appendInt(b, `,"waves":`, int64(r.Waves))
	b = appendString(append(b, `,"fidelity":`...), r.Fidelity)
	if r.PredictedNs != 0 {
		b = appendInt(b, `,"predicted_ns":`, r.PredictedNs)
	}
	if r.Source != "" {
		b = appendString(append(b, `,"source":`...), r.Source)
	}
	if r.Result == nil {
		return append(b, `,"result":null}`...)
	}
	return append(appendResult(append(b, `,"result":`...), r.Result), '}')
}

func appendResult(b []byte, r *core.Result) []byte {
	if p := r.Plan; p == nil {
		b = append(b, `{"Plan":null`...)
	} else {
		b = appendInt(b, `{"Plan":{"Shape":{"M":`, int64(p.Shape.M))
		b = appendInt(b, `,"N":`, int64(p.Shape.N))
		b = appendInt(b, `,"K":`, int64(p.Shape.K))
		b = appendInt(b, `},"Cfg":{"TileM":`, int64(p.Cfg.TileM))
		b = appendInt(b, `,"TileN":`, int64(p.Cfg.TileN))
		b = appendInt(b, `,"Swizzle":`, int64(p.Cfg.Swizzle))
		b = appendInt(b, `},"RowTiles":`, int64(p.RowTiles))
		b = appendInt(b, `,"ColTiles":`, int64(p.ColTiles))
		b = append(appendInt(b, `,"Tiles":`, int64(p.Tiles)), '}')
	}
	b = appendInts(append(b, `,"Partition":`...), r.Partition)
	b = appendInt(b, `,"WaveSize":`, int64(r.WaveSize))
	b = appendInt(b, `,"Waves":`, int64(r.Waves))
	b = appendInt(b, `,"Latency":`, int64(r.Latency))
	b = appendInt(b, `,"GEMMEnd":`, int64(r.GEMMEnd))
	b = append(b, `,"Groups":`...)
	if r.Groups == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, g := range r.Groups {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendInt(b, `{"Bytes":`, g.Bytes)
			b = appendInt(b, `,"SignalAt":`, int64(g.SignalAt))
			b = append(appendInt(b, `,"CommEnd":`, int64(g.CommEnd)), '}')
		}
		b = append(b, ']')
	}
	b = appendString(append(b, `,"Fidelity":`...), string(r.Fidelity))
	if len(r.Trace) != 0 {
		b = appendMarshal(append(b, `,"Trace":`...), r.Trace)
	}
	return append(b, '}')
}

func appendInt(b []byte, key string, v int64) []byte {
	return strconv.AppendInt(append(b, key...), v, 10)
}

func appendInts(b []byte, s []int) []byte {
	if s == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, v := range s {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return append(b, ']')
}

// appendString writes s raw when encoding/json would: printable ASCII
// other than the quote, the backslash and the HTML-escaped <, > and &.
// Any other string is encoding/json's to escape, as a copy: s itself never
// reaches the heap, so neither does the frame whose field it is.
func appendString(b []byte, s string) []byte {
	for i := range len(s) {
		if !plain(s[i]) {
			return appendMarshal(b, strings.Clone(s))
		}
	}
	return append(append(append(b, '"'), s...), '"')
}

func plain(c byte) bool {
	return c >= ' ' && c < 0x80 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// appendMarshal appends v as json.Marshal writes it. The types a frame
// carries hold no value json.Marshal rejects.
func appendMarshal(b []byte, v any) []byte {
	raw, _ := json.Marshal(v)
	return append(b, raw...)
}

// DecodeSweepFrame decodes one v2 line, its newline included, into fr. It
// accepts exactly the lines appendFrame writes, a replica's and the
// router's (whose results end with their owner and replica, which it
// skips), and decodes each to the frame json.Unmarshal gives. Any other
// line is rejected: whitespace, another key order, a zero-valued omitempty
// field such as "index":0, a missing or unknown key, a non-canonical
// number or string. A plan is rebuilt by gemm.RebuildPlan. DecodeSweepFrame
// overwrites all of fr; on error fr may be partly written.
func DecodeSweepFrame(line []byte, fr *SweepFrame) error {
	d := reader{line: line}
	*fr = SweepFrame{}
	d.lit(`{"frame":`)
	fr.Frame = d.str()
	fr.Index = d.optInt(`,"index":`)
	fr.Fidelity = d.optStr(`,"fidelity":`)
	if d.skip(`,"result":`) {
		fr.Result = d.sweepResult()
	}
	fr.Count = d.optInt(`,"count":`)
	fr.Salvaged = d.optInt(`,"salvaged":`)
	if d.skip(`,"error":`) {
		fr.Error = new(ErrorBody)
		rare(&d, fr.Error)
	}
	d.lit("}\n")
	if d.err == nil && d.off != len(d.line) {
		d.fail("data after the frame")
	}
	return d.err
}

// reader reads one line. It keeps its first error, and after a failure
// every read sees the end of the line, so callers check d.err once.
type reader struct {
	line []byte
	off  int
	err  error
}

func (d *reader) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("serve: sweep frame at byte %d: %s", d.off, fmt.Sprintf(format, args...))
	}
	d.off = len(d.line)
}

// skip consumes lit if the line continues with it.
func (d *reader) skip(lit string) bool {
	if len(d.line)-d.off < len(lit) || string(d.line[d.off:d.off+len(lit)]) != lit {
		return false
	}
	d.off += len(lit)
	return true
}

// lit consumes lit, which the line must continue with.
func (d *reader) lit(lit string) {
	if !d.skip(lit) {
		d.fail("want %s", lit)
	}
}

// int64 reads a canonical integer: an optional minus, then 0 or digits
// without a leading zero, within int64. -0 is not canonical.
func (d *reader) int64() int64 {
	neg := d.off < len(d.line) && d.line[d.off] == '-'
	if neg {
		d.off++
	}
	first := d.off
	var n uint64
	for ; d.off < len(d.line) && '0' <= d.line[d.off] && d.line[d.off] <= '9'; d.off++ {
		if n > math.MaxInt64/10 { // one more digit passes every int64
			n = math.MaxUint64
		} else {
			n = n*10 + uint64(d.line[d.off]-'0')
		}
	}
	limit := uint64(math.MaxInt64)
	if neg {
		limit++
	}
	if d.off == first || d.line[first] == '0' && (d.off-first > 1 || neg) || n > limit {
		d.off = first
		d.fail("not a canonical integer")
		return 0
	}
	if neg {
		return -int64(n)
	}
	return int64(n)
}

func (d *reader) int() int {
	n := d.int64()
	if int64(int(n)) != n {
		d.fail("%d does not fit an int", n)
	}
	return int(n)
}

// optInt reads an omitempty integer: absent is 0, and present is never 0.
func (d *reader) optInt(key string) int {
	if !d.skip(key) {
		return 0
	}
	if n := d.int(); n != 0 {
		return n
	}
	d.fail("%s0 is written absent", key)
	return 0
}

// optStr reads an omitempty string: absent is "", and present is never "".
func (d *reader) optStr(key string) string {
	if !d.skip(key) {
		return ""
	}
	if s := d.str(); s != "" {
		return s
	}
	d.fail(`%s"" is written absent`, key)
	return ""
}

// str reads a string. One that encoding/json writes unescaped ends at the
// first quote; any other goes to rare.
func (d *reader) str() string {
	if d.off < len(d.line) && d.line[d.off] == '"' {
		for i := d.off + 1; i < len(d.line); i++ {
			if c := d.line[i]; c == '"' {
				s := d.line[d.off+1 : i]
				d.off = i + 1
				return word(s)
			} else if !plain(c) {
				break
			}
		}
	}
	var s string
	rare(d, &s)
	return s
}

// word returns s as a string, reusing the constant for the words nearly
// every frame repeats instead of allocating a copy.
func word(s []byte) string {
	for _, w := range wireWords {
		if string(s) == w {
			return w
		}
	}
	return string(s)
}

var wireWords = []string{
	FrameResult, FrameDone, FrameError, FidelityDES, FidelityAnalytic, SourceCache, SourceTuned,
	hw.AllReduce.String(), hw.ReduceScatter.String(), hw.AllToAll.String(),
}

// rare decodes the value at d.off into v with encoding/json, and accepts
// it only if its bytes are the ones json.Marshal writes for v.
func rare[T any](d *reader, v *T) {
	if d.err != nil {
		return
	}
	dec := json.NewDecoder(bytes.NewReader(d.line[d.off:]))
	if err := dec.Decode(v); err != nil {
		d.fail("%v", err)
		return
	}
	end := d.off + int(dec.InputOffset())
	if want, _ := json.Marshal(v); !canonical(d.line[d.off:end], want) {
		d.fail("not canonical JSON")
		return
	}
	d.off = end
}

// canonical reports whether got is want, except that got may hold the
// escape \ufffd where want holds U+FFFD: encoding/json writes a byte of
// invalid UTF-8 as \ufffd, which decodes to U+FFFD, so such a line is one
// appendFrame writes for the string that held the byte.
func canonical(got, want []byte) bool {
	for len(got) > 0 && len(want) > 0 {
		switch {
		case got[0] == want[0]:
			got, want = got[1:], want[1:]
		case bytes.HasPrefix(got, []byte(`\ufffd`)) && bytes.HasPrefix(want, []byte("\uFFFD")):
			got, want = got[6:], want[3:]
		default:
			return false
		}
	}
	return len(got) == len(want)
}

// list reads a slice element by element: null is nil and [] is empty. per
// is the number of commas an element holds plus one, to size the slice.
func list[E any](d *reader, per int, elem func() E) []E {
	if d.skip("null") {
		return nil
	}
	d.lit("[")
	if d.skip("]") {
		return []E{}
	}
	end := bytes.IndexByte(d.line[d.off:], ']')
	s := make([]E, 0, (bytes.Count(d.line[d.off:d.off+max(end, 0)], []byte(","))+1)/per)
	for d.err == nil {
		s = append(s, elem())
		if !d.skip(",") {
			break
		}
	}
	d.lit("]")
	return s
}

// decoded holds a result frame's two results in one allocation.
type decoded struct {
	SweepResult
	result core.Result
}

func (d *reader) sweepResult() *SweepResult {
	p := new(decoded)
	r := &p.SweepResult
	d.lit(`{"shape":`)
	r.Shape = d.str()
	d.lit(`,"primitive":`)
	r.Primitive = d.str()
	d.lit(`,"partition":`)
	r.Partition = list(d, 1, d.int)
	d.lit(`,"waves":`)
	r.Waves = d.int()
	d.lit(`,"fidelity":`)
	r.Fidelity = d.str()
	if d.skip(`,"predicted_ns":`) {
		if r.PredictedNs = d.int64(); r.PredictedNs == 0 {
			d.fail(`"predicted_ns":0 is written absent`)
		}
	}
	r.Source = d.optStr(`,"source":`)
	d.lit(`,"result":`)
	if !d.skip("null") {
		r.Result = &p.result
		d.result(r.Result)
	}
	// The router's result appends its attribution here (shard.SweepResult).
	if d.skip(`,"owner":`) {
		d.int()
		d.lit(`,"replica":`)
		d.int()
	}
	d.lit("}")
	return r
}

func (d *reader) result(r *core.Result) {
	d.lit(`{"Plan":`)
	if !d.skip("null") {
		r.Plan = d.plan()
	}
	d.lit(`,"Partition":`)
	r.Partition = list(d, 1, d.int)
	d.lit(`,"WaveSize":`)
	r.WaveSize = d.int()
	d.lit(`,"Waves":`)
	r.Waves = d.int()
	d.lit(`,"Latency":`)
	r.Latency = sim.Time(d.int64())
	d.lit(`,"GEMMEnd":`)
	r.GEMMEnd = sim.Time(d.int64())
	d.lit(`,"Groups":`)
	r.Groups = list(d, 3, d.group)
	d.lit(`,"Fidelity":`)
	r.Fidelity = core.Fidelity(d.str())
	if d.skip(`,"Trace":`) {
		if rare(d, &r.Trace); len(r.Trace) == 0 {
			d.fail("an empty Trace is written absent")
		}
	}
	d.lit("}")
}

func (d *reader) group() core.GroupTiming {
	var g core.GroupTiming
	d.lit(`{"Bytes":`)
	g.Bytes = d.int64()
	d.lit(`,"SignalAt":`)
	g.SignalAt = sim.Time(d.int64())
	d.lit(`,"CommEnd":`)
	g.CommEnd = sim.Time(d.int64())
	d.lit("}")
	return g
}

// plan reads a plan's definition and rebuilds it with gemm.RebuildPlan, as
// gemm.Plan.UnmarshalJSON does.
func (d *reader) plan() *gemm.Plan {
	var def gemm.Plan
	d.lit(`{"Shape":{"M":`)
	def.Shape.M = d.int()
	d.lit(`,"N":`)
	def.Shape.N = d.int()
	d.lit(`,"K":`)
	def.Shape.K = d.int()
	d.lit(`},"Cfg":{"TileM":`)
	def.Cfg.TileM = d.int()
	d.lit(`,"TileN":`)
	def.Cfg.TileN = d.int()
	d.lit(`,"Swizzle":`)
	def.Cfg.Swizzle = d.int()
	d.lit(`},"RowTiles":`)
	def.RowTiles = d.int()
	d.lit(`,"ColTiles":`)
	def.ColTiles = d.int()
	d.lit(`,"Tiles":`)
	def.Tiles = d.int()
	d.lit("}")
	if d.err != nil {
		return nil
	}
	p, err := gemm.RebuildPlan(def)
	if err != nil {
		d.fail("%v", err)
	}
	return p
}
