package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/gemm"
	"repro/internal/hw"
)

// maxFrameDepth is encoding/json's nesting bound: a line that opens more
// objects and arrays than this is rejected before it can grow the stack.
const maxFrameDepth = 10000

// DecodeSweepFrame decodes one v2 frame line into fr as
// json.Unmarshal(line, fr) would: it accepts the same lines and yields the
// same frame, without reflection and in one pass over the line. That
// covers encoding/json's corners: a key selects a field exactly, else
// case-folded as encoding/json folds it; unknown keys, such as the
// router's owner and replica, are skipped; null leaves a scalar as it is
// and sets a pointer or slice to nil; a repeated key decodes into the
// value already there; invalid UTF-8 in a string becomes U+FFFD; an
// integer field takes only an integer that fits; nesting deeper than
// 10000 levels is rejected. A plan is rebuilt by gemm.RebuildPlan, as
// gemm.Plan.UnmarshalJSON rebuilds it. The rarely sent values, an error
// frame's error and a traced result's Trace, go to json.Unmarshal as raw
// bytes. Whitespace around the value, the line's newline included, is
// ignored. On error fr may be partly written, as with json.Unmarshal.
func DecodeSweepFrame(line []byte, fr *SweepFrame) error {
	d := frameDecoder{data: line}
	d.frame(fr)
	if d.next(); d.err == nil && d.off < len(d.data) {
		d.fail("data after the frame")
	}
	return d.err
}

// frameDecoder reads one line. Like bufio.Scanner it keeps its first
// error: after a failure every read sees the end of the line, so callers
// check d.err once instead of after every call.
type frameDecoder struct {
	data  []byte
	off   int
	depth int
	buf   []byte // unquoted bytes of a string that needed unquoting
	err   error
}

func (d *frameDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("serve: sweep frame at byte %d: %s", d.off, fmt.Sprintf(format, args...))
	}
	d.off = len(d.data)
}

// next skips whitespace and returns the next byte, or 0 at the end.
func (d *frameDecoder) next() byte {
	for ; d.off < len(d.data); d.off++ {
		switch c := d.data[d.off]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

func (d *frameDecoder) literal(lit string) {
	if !bytes.HasPrefix(d.data[d.off:], []byte(lit)) {
		d.fail("invalid literal")
		return
	}
	d.off += len(lit)
}

// null consumes a null if one is next.
func (d *frameDecoder) null() bool {
	if d.next() != 'n' {
		return false
	}
	d.literal("null")
	return true
}

// object reads an object, calling member with each key and the decoder
// at the key's value, which member must consume. null is an absent
// object: the struct it would fill is left as it is.
func (d *frameDecoder) object(member func(key []byte)) {
	if d.null() {
		return
	}
	if !d.open('{') {
		return
	}
	if d.next() == '}' {
		d.close()
		return
	}
	for d.err == nil {
		if d.next() != '"' {
			d.fail("want a key")
			return
		}
		key := d.str()
		if d.next() != ':' {
			d.fail("want ':'")
			return
		}
		d.off++
		member(key)
		switch d.next() {
		case ',':
			d.off++
		case '}':
			d.close()
			return
		default:
			d.fail("want ',' or '}'")
		}
	}
}

// array reads an array, calling elem with each element's index and the
// decoder at the element, which elem must consume. It returns the count.
func (d *frameDecoder) array(elem func(i int)) int {
	if !d.open('[') {
		return 0
	}
	if d.next() == ']' {
		d.close()
		return 0
	}
	for i := 0; d.err == nil; i++ {
		elem(i)
		switch d.next() {
		case ',':
			d.off++
		case ']':
			d.close()
			return i + 1
		default:
			d.fail("want ',' or ']'")
		}
	}
	return 0
}

func (d *frameDecoder) open(c byte) bool {
	if d.next() != c {
		d.fail("want %q", c)
		return false
	}
	if d.depth++; d.depth > maxFrameDepth {
		d.fail("nested deeper than %d", maxFrameDepth)
		return false
	}
	d.off++
	return true
}

func (d *frameDecoder) close() {
	d.depth--
	d.off++
}

// skip reads past one value of any kind, checking its grammar.
func (d *frameDecoder) skip() {
	switch c := d.next(); {
	case c == '{':
		d.object(func([]byte) { d.skip() })
	case c == '[':
		d.array(func(int) { d.skip() })
	case c == '"':
		d.str()
	case c == 't':
		d.literal("true")
	case c == 'f':
		d.literal("false")
	case c == 'n':
		d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		d.number()
	default:
		d.fail("want a value")
	}
}

// str reads the string at d.off and returns its unquoted bytes: a slice of
// the line when nothing needs unquoting, else d.buf, valid until the next
// string.
func (d *frameDecoder) str() []byte {
	d.off++
	start := d.off
	for ; d.off < len(d.data); d.off++ {
		switch c := d.data[d.off]; {
		case c == '"':
			d.off++
			return d.data[start : d.off-1]
		case c == '\\', c < ' ', c >= utf8.RuneSelf:
			return d.unquote(start)
		}
	}
	d.fail("unterminated string")
	return nil
}

// unquote finishes a string from the first byte str could not pass
// through, decoding it as encoding/json does: escapes, surrogate pairs
// (a lone surrogate becomes U+FFFD), and invalid UTF-8 as U+FFFD.
func (d *frameDecoder) unquote(start int) []byte {
	b := append(d.buf[:0], d.data[start:d.off]...)
	for d.off < len(d.data) {
		c := d.data[d.off]
		switch {
		case c == '"':
			d.off++
			d.buf = b
			return b
		case c < ' ':
			d.fail("control character in string")
			return nil
		case c < utf8.RuneSelf && c != '\\':
			b = append(b, c)
			d.off++
		case c >= utf8.RuneSelf:
			r, n := utf8.DecodeRune(d.data[d.off:])
			b = utf8.AppendRune(b, r)
			d.off += n
		default:
			if d.off+1 >= len(d.data) {
				d.fail("unterminated string")
				return nil
			}
			if i := strings.IndexByte(`"\/bfnrt`, d.data[d.off+1]); i >= 0 {
				b = append(b, "\"\\/\b\f\n\r\t"[i])
				d.off += 2
				continue
			}
			r := hex4(d.data[d.off:])
			if r < 0 {
				d.fail("invalid escape")
				return nil
			}
			d.off += 6
			if utf16.IsSurrogate(r) {
				if pair := utf16.DecodeRune(r, hex4(d.data[d.off:])); pair != utf8.RuneError {
					r = pair
					d.off += 6
				} else {
					r = utf8.RuneError
				}
			}
			b = utf8.AppendRune(b, r)
		}
	}
	d.fail("unterminated string")
	return nil
}

// hex4 decodes the \uXXXX escape that s starts with, or returns -1.
func hex4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	r, err := strconv.ParseUint(string(s[2:6]), 16, 16)
	if err != nil {
		return -1
	}
	return rune(r)
}

// number reads a number literal.
func (d *frameDecoder) number() []byte {
	start := d.off
	if d.off < len(d.data) && d.data[d.off] == '-' {
		d.off++
	}
	ok := true
	if d.off < len(d.data) && d.data[d.off] == '0' {
		d.off++
	} else {
		ok = d.digits()
	}
	if ok && d.off < len(d.data) && d.data[d.off] == '.' {
		d.off++
		ok = d.digits()
	}
	if ok && d.off < len(d.data) && (d.data[d.off] == 'e' || d.data[d.off] == 'E') {
		d.off++
		if d.off < len(d.data) && (d.data[d.off] == '+' || d.data[d.off] == '-') {
			d.off++
		}
		ok = d.digits()
	}
	if !ok {
		d.fail("invalid number")
		return nil
	}
	return d.data[start:d.off]
}

func (d *frameDecoder) digits() bool {
	start := d.off
	for d.off < len(d.data) && '0' <= d.data[d.off] && d.data[d.off] <= '9' {
		d.off++
	}
	return d.off > start
}

// integer reads an integer field as encoding/json does, through
// strconv.ParseInt: null leaves the field, and a fraction, an exponent or
// a value the field cannot hold is rejected.
func integer[T ~int | ~int64](d *frameDecoder, p *T) {
	if d.null() {
		return
	}
	d.next()
	lit := d.number()
	if d.err != nil {
		return
	}
	n, err := strconv.ParseInt(string(lit), 10, 64)
	if v := T(n); err == nil && int64(v) == n {
		*p = v
		return
	}
	d.fail("%s does not fit an integer field", lit)
}

// int is integer[int] as a method value, to decode slice elements.
func (d *frameDecoder) int(p *int) { integer(d, p) }

// text reads a string field; null leaves it.
func text[T ~string](d *frameDecoder, p *T) {
	if d.null() {
		return
	}
	if d.next() != '"' {
		d.fail("want a string")
		return
	}
	s := d.str()
	if d.err != nil {
		return
	}
	for _, w := range wireWords {
		if string(s) == w {
			*p = T(w)
			return
		}
	}
	*p = T(s)
}

// wireWords are the strings nearly every frame repeats; decoding one
// reuses the constant instead of allocating a copy.
var wireWords = []string{
	FrameResult, FrameDone, FrameError, FidelityDES, FidelityAnalytic, SourceCache, SourceTuned,
	hw.AllReduce.String(), hw.ReduceScatter.String(), hw.AllToAll.String(),
}

// member is one field of a struct a frame carries: its JSON key and how
// to decode its value into the struct.
type member struct {
	key    string
	decode func()
}

// members reads an object into the struct ms describe. A key selects a
// member as encoding/json selects a field: exactly first, else
// case-folded (for these ASCII keys, equality under encoding/json's
// foldName is bytes.EqualFold). Other keys are skipped.
func (d *frameDecoder) members(ms ...member) {
	d.object(func(key []byte) {
		for _, m := range ms {
			if string(key) == m.key {
				m.decode()
				return
			}
		}
		for _, m := range ms {
			if bytes.EqualFold(key, []byte(m.key)) {
				m.decode()
				return
			}
		}
		d.skip()
	})
}

// ptr decodes a pointer field: null sets it nil; any other value decodes
// into *p, allocated first if nil.
func ptr[T any](d *frameDecoder, p **T, decode func(*T)) {
	if d.null() {
		*p = nil
		return
	}
	if *p == nil {
		*p = new(T)
	}
	decode(*p)
}

// slice decodes a slice field as encoding/json does: null sets it nil;
// elements decode into the existing ones, stale fields included; a longer
// array extends the slice within its capacity before growing it, a
// shorter one truncates it, and [] makes it empty but not nil.
func slice[S ~[]E, E any](d *frameDecoder, p *S, decode func(*E)) {
	if d.null() {
		*p = nil
		return
	}
	s := *p
	n := d.array(func(i int) {
		if i == cap(s) {
			// Doubling from 4 ends at the capacity json.Decoder would
			// for 4 or more elements, in fewer steps.
			s = slices.Grow(s, max(4, i))
		}
		if i == len(s) {
			s = s[:i+1]
		}
		decode(&s[i])
	})
	switch {
	case n == 0:
		s = S{}
	case n < len(s):
		s = s[:n]
	}
	*p = s
}

// raw hands the next value's bytes to json.Unmarshal into *p.
func raw[T any](d *frameDecoder, p *T) {
	d.next()
	start := d.off
	d.skip()
	if d.err != nil {
		return
	}
	v := *p
	if err := json.Unmarshal(d.data[start:d.off], &v); err != nil {
		d.off = start
		d.fail("%v", err)
		return
	}
	*p = v
}

func (d *frameDecoder) frame(fr *SweepFrame) {
	d.members(
		member{"frame", func() { text(d, &fr.Frame) }},
		member{"index", func() { integer(d, &fr.Index) }},
		member{"fidelity", func() { text(d, &fr.Fidelity) }},
		member{"result", func() { ptr(d, &fr.Result, d.sweepResult) }},
		member{"count", func() { integer(d, &fr.Count) }},
		member{"salvaged", func() { integer(d, &fr.Salvaged) }},
		member{"error", func() { raw(d, &fr.Error) }},
	)
}

func (d *frameDecoder) sweepResult(r *SweepResult) {
	d.members(
		member{"shape", func() { text(d, &r.Shape) }},
		member{"primitive", func() { text(d, &r.Primitive) }},
		member{"partition", func() { slice(d, &r.Partition, d.int) }},
		member{"waves", func() { integer(d, &r.Waves) }},
		member{"fidelity", func() { text(d, &r.Fidelity) }},
		member{"predicted_ns", func() { integer(d, &r.PredictedNs) }},
		member{"source", func() { text(d, &r.Source) }},
		member{"result", func() { ptr(d, &r.Result, d.result) }},
	)
}

func (d *frameDecoder) result(r *core.Result) {
	d.members(
		member{"Plan", func() { d.plan(&r.Plan) }},
		member{"Partition", func() { slice(d, &r.Partition, d.int) }},
		member{"WaveSize", func() { integer(d, &r.WaveSize) }},
		member{"Waves", func() { integer(d, &r.Waves) }},
		member{"Latency", func() { integer(d, &r.Latency) }},
		member{"GEMMEnd", func() { integer(d, &r.GEMMEnd) }},
		member{"Groups", func() { slice(d, &r.Groups, d.group) }},
		member{"Fidelity", func() { text(d, &r.Fidelity) }},
		member{"Trace", func() { raw(d, &r.Trace) }},
	)
}

func (d *frameDecoder) group(g *core.GroupTiming) {
	d.members(
		member{"Bytes", func() { integer(d, &g.Bytes) }},
		member{"SignalAt", func() { integer(d, &g.SignalAt) }},
		member{"CommEnd", func() { integer(d, &g.CommEnd) }},
	)
}

// plan decodes a plan the way gemm.Plan.UnmarshalJSON does: null sets it
// nil; an object is a definition, read into a fresh value and rebuilt by
// gemm.RebuildPlan, which replaces the whole plan.
func (d *frameDecoder) plan(p **gemm.Plan) {
	if d.null() {
		*p = nil
		return
	}
	if d.next() != '{' {
		d.fail("want a plan")
		return
	}
	var def gemm.Plan
	d.members(
		member{"Shape", func() {
			d.members(
				member{"M", func() { integer(d, &def.Shape.M) }},
				member{"N", func() { integer(d, &def.Shape.N) }},
				member{"K", func() { integer(d, &def.Shape.K) }},
			)
		}},
		member{"Cfg", func() {
			d.members(
				member{"TileM", func() { integer(d, &def.Cfg.TileM) }},
				member{"TileN", func() { integer(d, &def.Cfg.TileN) }},
				member{"Swizzle", func() { integer(d, &def.Cfg.Swizzle) }},
			)
		}},
		member{"RowTiles", func() { integer(d, &def.RowTiles) }},
		member{"ColTiles", func() { integer(d, &def.ColTiles) }},
		member{"Tiles", func() { integer(d, &def.Tiles) }},
	)
	if d.err != nil {
		return
	}
	q, err := gemm.RebuildPlan(def)
	if err != nil {
		d.fail("%v", err)
		return
	}
	if *p == nil {
		*p = q
	} else {
		**p = *q
	}
}
