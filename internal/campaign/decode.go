package campaign

import (
	"encoding/json"
	"strconv"
	"sync/atomic"
	"unicode/utf8"

	"mfc/internal/core"
)

// decodeFallbacks counts the lines decodeLine handed to encoding/json. A
// store written by Store.Append never adds to it; the tests hold it there.
var decodeFallbacks atomic.Int64

// decodeLine decodes one shard line into rec, which must be the zero
// Record, exactly as json.Unmarshal decodes it into a Record (full) or a
// compactRecord (otherwise; Result stays nil). It makes one validating
// pass over the canonical encoding Store.Append writes — known keys in
// field order, no whitespace, no escapes, JSON-grammar numbers — and
// skips the result subtree in a compact scan. Any other line goes whole
// to json.Unmarshal, so encoding/json alone decides what a line holds.
func decodeLine(line []byte, rec *Record, full bool) error {
	d := lineDecoder{b: line, full: full}
	if fields(&d, rec, recordFields) && d.i == len(line) {
		return nil
	}
	decodeFallbacks.Add(1)
	if full {
		*rec = Record{}
		return json.Unmarshal(line, rec)
	}
	var c compactRecord
	err := json.Unmarshal(line, &c)
	*rec = c.Record
	return err
}

// lineDecoder is decodeLine's cursor. Every method reports whether it
// decoded what it was asked for; false means "not canonical", never an
// error of its own.
type lineDecoder struct {
	b    []byte
	i    int
	full bool
}

// field decodes the value of one JSON key into its place in a T.
type field[T any] struct {
	key string
	dec func(d *lineDecoder, v *T) bool
}

// The JSON fields of the four record types, in encoding order. Samples
// and MeasurerMedians are filled only by opt-in measurement modes no
// campaign uses: anything but null there is encoding/json's to decode.
var (
	recordFields = []field[Record]{
		{"job", func(d *lineDecoder, r *Record) bool { return integer(d, &r.Job) }},
		{"site", func(d *lineDecoder, r *Record) bool { return d.string(&r.Site) }},
		{"band", func(d *lineDecoder, r *Record) bool { return d.string(&r.Band) }},
		{"stage", func(d *lineDecoder, r *Record) bool { return d.string(&r.Stage) }},
		{"scenario", func(d *lineDecoder, r *Record) bool { return d.string(&r.Scenario) }},
		{"verdict", func(d *lineDecoder, r *Record) bool { return d.string(&r.Verdict) }},
		{"stop", func(d *lineDecoder, r *Record) bool { return integer(d, &r.Stop) }},
		{"first_exceed", func(d *lineDecoder, r *Record) bool { return integer(d, &r.FirstExceed) }},
		{"requests", func(d *lineDecoder, r *Record) bool { return integer(d, &r.Requests) }},
		{"sim_elapsed_ns", func(d *lineDecoder, r *Record) bool { return integer(d, &r.SimElapsedNs) }},
		{"err", func(d *lineDecoder, r *Record) bool { return d.string(&r.Err) }},
		{"result", (*lineDecoder).result},
	}
	resultFields = []field[core.Result]{
		{"Target", func(d *lineDecoder, r *core.Result) bool { return d.string(&r.Target) }},
		{"Scenario", func(d *lineDecoder, r *core.Result) bool { return d.string(&r.Scenario) }},
		{"Stages", func(d *lineDecoder, r *core.Result) bool {
			return list(d, &r.Stages, func(p **core.StageResult) bool {
				*p = new(core.StageResult)
				return fields(d, *p, stageFields)
			})
		}},
	}
	stageFields = []field[core.StageResult]{
		{"Stage", func(d *lineDecoder, s *core.StageResult) bool { return integer(d, &s.Stage) }},
		{"Verdict", func(d *lineDecoder, s *core.StageResult) bool { return integer(d, &s.Verdict) }},
		{"Threshold", func(d *lineDecoder, s *core.StageResult) bool { return integer(d, &s.Threshold) }},
		{"Quantile", func(d *lineDecoder, s *core.StageResult) bool { return d.float(&s.Quantile) }},
		{"StoppingCrowd", func(d *lineDecoder, s *core.StageResult) bool { return integer(d, &s.StoppingCrowd) }},
		{"FirstExceed", func(d *lineDecoder, s *core.StageResult) bool { return integer(d, &s.FirstExceed) }},
		{"Epochs", func(d *lineDecoder, s *core.StageResult) bool {
			return list(d, &s.Epochs, func(e *core.EpochResult) bool { return fields(d, e, epochFields) })
		}},
		{"TotalRequests", func(d *lineDecoder, s *core.StageResult) bool { return integer(d, &s.TotalRequests) }},
		{"Started", func(d *lineDecoder, s *core.StageResult) bool { return integer(d, &s.Started) }},
		{"Elapsed", func(d *lineDecoder, s *core.StageResult) bool { return integer(d, &s.Elapsed) }},
	}
	epochFields = []field[core.EpochResult]{
		{"Index", func(d *lineDecoder, e *core.EpochResult) bool { return integer(d, &e.Index) }},
		{"Kind", func(d *lineDecoder, e *core.EpochResult) bool { return integer(d, &e.Kind) }},
		{"Crowd", func(d *lineDecoder, e *core.EpochResult) bool { return integer(d, &e.Crowd) }},
		{"Scheduled", func(d *lineDecoder, e *core.EpochResult) bool { return integer(d, &e.Scheduled) }},
		{"Received", func(d *lineDecoder, e *core.EpochResult) bool { return integer(d, &e.Received) }},
		{"Errors", func(d *lineDecoder, e *core.EpochResult) bool { return integer(d, &e.Errors) }},
		{"NormQuantile", func(d *lineDecoder, e *core.EpochResult) bool { return integer(d, &e.NormQuantile) }},
		{"NormMedian", func(d *lineDecoder, e *core.EpochResult) bool { return integer(d, &e.NormMedian) }},
		{"Exceeded", func(d *lineDecoder, e *core.EpochResult) bool { return d.boolean(&e.Exceeded) }},
		{"Samples", func(d *lineDecoder, _ *core.EpochResult) bool { return d.lit("null") }},
		{"Spread90", func(d *lineDecoder, e *core.EpochResult) bool { return integer(d, &e.Spread90) }},
		{"ArriveAt", func(d *lineDecoder, e *core.EpochResult) bool { return integer(d, &e.ArriveAt) }},
		{"Done", func(d *lineDecoder, e *core.EpochResult) bool { return integer(d, &e.Done) }},
		{"MeasurerMedians", func(d *lineDecoder, _ *core.EpochResult) bool { return d.lit("null") }},
	}
)

// fields decodes an object into v whose keys are fs's in order, less any
// omitempty ones left out: in encoding order a key costs one comparison.
func fields[T any](d *lineDecoder, v *T, fs []field[T]) bool {
	next := 0
	return d.seq('{', '}', func() bool {
		for next < len(fs) && !d.key(fs[next].key) {
			next++
		}
		next++
		return next <= len(fs) && d.eat(':') && fs[next-1].dec(d, v)
	})
}

// key consumes the plain string k if the cursor is on exactly it.
func (d *lineDecoder) key(k string) bool {
	end := d.i + len(k) + 2
	if end > len(d.b) || d.b[d.i] != '"' || d.b[end-1] != '"' || string(d.b[d.i+1:end-1]) != k {
		return false
	}
	d.i = end
	return true
}

// result builds the record's Result in a full scan, skips it in a compact one.
func (d *lineDecoder) result(rec *Record) bool {
	switch {
	case !d.full:
		return d.skip(0)
	case d.lit("null"):
		return true
	}
	rec.Result = new(core.Result)
	return fields(d, rec.Result, resultFields)
}

// seq decodes open elem,elem,... close: an object's or an array's shape.
func (d *lineDecoder) seq(open, close byte, elem func() bool) bool {
	if !d.eat(open) {
		return false
	}
	if d.eat(close) {
		return true
	}
	for elem() {
		if !d.eat(',') {
			return d.eat(close)
		}
	}
	return false
}

// list decodes null or an array into the nil *s: null leaves it nil and
// [] makes it empty but non-nil, as encoding/json does.
func list[T any](d *lineDecoder, s *[]T, elem func(*T) bool) bool {
	if d.lit("null") {
		return true
	}
	*s = []T{}
	return d.seq('[', ']', func() bool {
		*s = append(*s, *new(T))
		return elem(&(*s)[len(*s)-1])
	})
}

// maxSkipDepth bounds the nesting a compact scan skips itself; a deeper
// result subtree goes to encoding/json.
const maxSkipDepth = 64

// skip validates and passes over one value.
func (d *lineDecoder) skip(depth int) bool {
	if depth > maxSkipDepth {
		return false
	}
	switch at(d.b, d.i) {
	case '{':
		return d.seq('{', '}', func() bool {
			_, ok := d.str()
			return ok && d.eat(':') && d.skip(depth+1)
		})
	case '[':
		return d.seq('[', ']', func() bool { return d.skip(depth + 1) })
	case '"':
		_, ok := d.str()
		return ok
	case 't':
		return d.lit("true")
	case 'f':
		return d.lit("false")
	case 'n':
		return d.lit("null")
	}
	tok, _ := d.number()
	return tok != nil
}

func (d *lineDecoder) string(p *string) bool {
	s, ok := d.str()
	*p = string(s)
	return ok
}

// integer decodes an integral number into an int-kinded field, refusing
// one that overflows it, as encoding/json's strconv.ParseInt does; up to
// 18 bytes cannot overflow an int64 and are summed inline.
func integer[T ~int | ~int64](d *lineDecoder, p *T) bool {
	tok, integral := d.number()
	if !integral {
		return false
	}
	var n int64
	var err error
	if len(tok) > 18 {
		n, err = strconv.ParseInt(string(tok), 10, 64)
	} else {
		for _, c := range tok {
			if c != '-' {
				n = n*10 + int64(c-'0')
			}
		}
		if tok[0] == '-' {
			n = -n
		}
	}
	*p = T(n)
	return err == nil && int64(*p) == n
}

func (d *lineDecoder) float(p *float64) bool {
	tok, _ := d.number()
	f, err := strconv.ParseFloat(string(tok), 64)
	*p = f
	return err == nil
}

func (d *lineDecoder) boolean(p *bool) bool {
	*p = d.lit("true")
	return *p || d.lit("false")
}

// str scans a string that needs no unescaping — no backslash, no
// control byte, valid UTF-8 — and returns the bytes between its quotes.
func (d *lineDecoder) str() ([]byte, bool) {
	if !d.eat('"') {
		return nil, false
	}
	b, i := d.b, d.i
	for i < len(b) {
		switch c := b[i]; {
		case c >= 0x20 && c < utf8.RuneSelf && c != '"' && c != '\\':
			i++
		case c == '"':
			s := b[d.i:i]
			d.i = i + 1
			return s, true
		case c >= utf8.RuneSelf:
			r, n := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && n == 1 {
				return nil, false
			}
			i += n
		default:
			return nil, false
		}
	}
	return nil, false
}

// number scans a JSON-grammar number; integral reports that it has no
// fraction and no exponent. tok is nil if there is no number here.
func (d *lineDecoder) number() (tok []byte, integral bool) {
	b, i := d.b, d.i
	if at(b, i) == '-' {
		i++
	}
	if at(b, i) == '0' {
		i++
	} else {
		i = digits(b, i)
	}
	integral = true
	if at(b, i) == '.' {
		i, integral = digits(b, i+1), false
	}
	if c := at(b, i); c == 'e' || c == 'E' {
		if c := at(b, i+1); c == '+' || c == '-' {
			i++
		}
		i, integral = digits(b, i+1), false
	}
	if i < 0 {
		return nil, false
	}
	tok, d.i = b[d.i:i], i
	return tok, integral
}

// digits returns the index past the run of digits at b[i:], or -1 if
// there is none.
func digits(b []byte, i int) int {
	j := i
	for j < len(b) && '0' <= b[j] && b[j] <= '9' {
		j++
	}
	if j == i {
		return -1
	}
	return j
}

// at returns b[i], or 0 — a byte no JSON token continues with — for an i
// outside b.
func at(b []byte, i int) byte {
	if uint(i) < uint(len(b)) {
		return b[i]
	}
	return 0
}

func (d *lineDecoder) lit(s string) bool {
	if len(d.b)-d.i >= len(s) && string(d.b[d.i:d.i+len(s)]) == s {
		d.i += len(s)
		return true
	}
	return false
}

func (d *lineDecoder) eat(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}
