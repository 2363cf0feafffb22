package store

import (
	"bytes"
	"encoding/json"
	"strconv"
	"time"
)

// Journal decoding.
//
// Every load decodes a session's snapshot and each line of its log, and an
// adopting load decodes a whole journal: through encoding/json's
// reflection that was most of what File.Get cost. json.Marshal writes both
// files in one form — keys in struct order, omitted fields left out, no
// whitespace, strings escaped only where they must be — and the scanner
// below reads exactly that form, field by field, with no reflection. Any
// input it does not accept (whitespace, another key order, an escaped or
// non-ASCII string, null, an empty array, an unknown key, the split
// layout) is decoded by json.Unmarshal instead, so every input decodes to
// the value, or the error, it always did. FuzzJournalDecode holds the two
// paths to each other.

// The keys the scanner reads, in the order json.Marshal writes them: each
// struct's JSON tags in field order, less its embedded struct, whose keys
// follow in the same object. TestScannerKeysMatchTags holds these lists to
// the structs, so a field added later fails a test rather than sending
// every load down the slow path.
var (
	snapshotKeys = []string{"format", "absorbed"}
	recordKeys   = []string{"id", "selector", "pc", "k", "budget", "seed", "prior",
		"created", "last_access", "ops", "lease_epoch", "worker_model"}
	priorKeys   = []string{"marginals", "n", "worlds", "probs"}
	logLineKeys = []string{"line"}
	opKeys      = []string{"op", "version", "tasks", "answers", "batch", "workers",
		"sources", "sens", "spec", "epoch", "time"}
)

// decodeSnapshot decodes a snapshot file exactly as json.Unmarshal into
// snapshot{Record: &Record{}} does.
func decodeSnapshot(data []byte) (snapshot, error) {
	if snap, ok := scanSnapshot(data); ok {
		return snap, nil
	}
	snap := snapshot{Record: &Record{}}
	err := json.Unmarshal(data, &snap)
	return snap, err
}

// decodeLine decodes one log line exactly as json.Unmarshal into a zero
// logLine does.
func decodeLine(data []byte) (logLine, error) {
	if l, ok := scanLine(data); ok {
		return l, nil
	}
	var l logLine
	err := json.Unmarshal(data, &l)
	return l, err
}

// scanSnapshot reads a snapshot in json.Marshal's form, reporting false
// for any other input.
func scanSnapshot(data []byte) (snapshot, bool) {
	d := scanner{data: data}
	snap := snapshot{Record: &Record{}}
	d.open()
	for _, k := range snapshotKeys {
		if !d.field(k) {
			continue
		}
		switch k {
		case "format":
			snap.Format = d.int()
		case "absorbed":
			snap.Absorbed = d.uint()
		}
	}
	d.record(snap.Record)
	d.close()
	return snap, d.done()
}

// scanLine reads a log line in json.Marshal's form, reporting false for
// any other input.
func scanLine(data []byte) (logLine, bool) {
	d := scanner{data: data}
	var l logLine
	d.open()
	if d.field(logLineKeys[0]) {
		l.Line = d.uint()
	}
	d.opFields(&l.Op)
	d.close()
	return l, d.done()
}

// scanner reads JSON in json.Marshal's form. The first byte it does not
// expect marks the input bad; every read after that returns a zero value.
type scanner struct {
	data  []byte
	off   int
	first bool // the innermost open object has no field read yet
	bad   bool
}

// done reports whether the whole input was read in the expected form.
func (d *scanner) done() bool { return !d.bad && d.off == len(d.data) }

func (d *scanner) fail() {
	d.bad = true
	d.off = len(d.data)
}

// skip consumes c if it is the next byte.
func (d *scanner) skip(c byte) bool {
	if d.off < len(d.data) && d.data[d.off] == c {
		d.off++
		return true
	}
	return false
}

func (d *scanner) expect(c byte) {
	if !d.skip(c) {
		d.fail()
	}
}

func (d *scanner) open() {
	d.expect('{')
	d.first = true
}

func (d *scanner) close() {
	d.expect('}')
	d.first = false
}

// field reports whether the next key in the open object is name, and if
// so consumes it with the comma before it and the colon after it. Keys are
// read in struct order, so a field omitted from the input is skipped by
// asking for the next one.
func (d *scanner) field(name string) bool {
	i := d.off
	if !d.first {
		if i >= len(d.data) || d.data[i] != ',' {
			return false
		}
		i++
	}
	end := i + len(name) + 3
	if end > len(d.data) || d.data[i] != '"' || string(d.data[i+1:end-2]) != name ||
		d.data[end-2] != '"' || d.data[end-1] != ':' {
		return false
	}
	d.off, d.first = end, false
	return true
}

func (d *scanner) record(r *Record) {
	for _, k := range recordKeys {
		if !d.field(k) {
			continue
		}
		switch k {
		case "id":
			r.ID = d.str()
		case "selector":
			r.Selector = d.str()
		case "pc":
			r.Pc = d.float()
		case "k":
			r.K = d.int()
		case "budget":
			r.Budget = d.int()
		case "seed":
			r.Seed = d.signed(64)
		case "prior":
			d.prior(&r.Prior)
		case "created":
			r.Created = d.time()
		case "last_access":
			r.LastAccess = d.time()
		case "ops":
			// Every op opens with its kind, so counting the openings
			// sizes the journal.
			n := bytes.Count(d.data[d.off:], []byte(`{"op":`))
			r.Ops = appendArray(d, make([]Op, 0, n), (*scanner).op)
		case "lease_epoch":
			r.LeaseEpoch = d.uint()
		case "worker_model":
			r.WorkerModel = d.str()
		}
	}
}

func (d *scanner) prior(p *Prior) {
	d.open()
	for _, k := range priorKeys {
		if !d.field(k) {
			continue
		}
		switch k {
		case "marginals":
			p.Marginals = array(d, (*scanner).float)
		case "n":
			p.N = d.int()
		case "worlds":
			p.Worlds = array(d, (*scanner).uint)
		case "probs":
			p.Probs = array(d, (*scanner).float)
		}
	}
	d.close()
}

func (d *scanner) op() (op Op) {
	d.open()
	d.opFields(&op)
	d.close()
	return op
}

// opFields reads an op's fields into op; the caller reads the braces,
// since a log line shares its object with the op it embeds.
func (d *scanner) opFields(op *Op) {
	for _, k := range opKeys {
		if !d.field(k) {
			continue
		}
		switch k {
		case "op":
			op.Kind = d.str()
		case "version":
			op.Version = d.int()
		case "tasks":
			op.Tasks = array(d, (*scanner).int)
		case "answers":
			op.Answers = array(d, (*scanner).bool)
		case "batch":
			op.Batch = array(d, (*scanner).int)
		case "workers":
			op.Workers = array(d, (*scanner).str)
		case "sources":
			op.Sources = array(d, (*scanner).str)
		case "sens":
			op.Sens = array(d, (*scanner).float)
		case "spec":
			op.Spec = array(d, (*scanner).float)
		case "epoch":
			op.Epoch = d.uint()
		case "time":
			op.Time = d.time()
		}
	}
}

// array reads a non-empty array of scalars, sized by the commas before
// the first ']': exactly for numbers and booleans, roughly for strings,
// which may hold either byte.
func array[T any](d *scanner, elem func(*scanner) T) []T {
	n := 1
	if end := bytes.IndexByte(d.data[d.off:], ']'); end > 0 {
		n += bytes.Count(d.data[d.off:d.off+end], []byte{','})
	}
	return appendArray(d, make([]T, 0, n), elem)
}

// appendArray reads a non-empty array of elem onto out. json.Marshal
// omits an empty one, so "[]" is not its form and goes to json.Unmarshal,
// like null.
func appendArray[T any](d *scanner, out []T, elem func(*scanner) T) []T {
	if !d.skip('[') {
		d.fail()
		return nil
	}
	for !d.bad {
		out = append(out, elem(d))
		if !d.skip(',') {
			d.expect(']')
			return out
		}
	}
	return nil
}

// number returns the next number literal in JSON's grammar
// (-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?) and whether it is an
// integer, with neither fraction nor exponent.
func (d *scanner) number() (lit []byte, integer bool) {
	start, i := d.off, d.off
	digits := func() bool {
		j := i
		for i < len(d.data) && d.data[i] >= '0' && d.data[i] <= '9' {
			i++
		}
		return i > j
	}
	if i < len(d.data) && d.data[i] == '-' {
		i++
	}
	switch {
	case i < len(d.data) && d.data[i] == '0':
		i++
	case !digits():
		d.fail()
		return nil, false
	}
	integer = true
	if i < len(d.data) && d.data[i] == '.' {
		i++
		if !digits() {
			d.fail()
			return nil, false
		}
		integer = false
	}
	if i < len(d.data) && (d.data[i] == 'e' || d.data[i] == 'E') {
		i++
		if i < len(d.data) && (d.data[i] == '+' || d.data[i] == '-') {
			i++
		}
		if !digits() {
			d.fail()
			return nil, false
		}
		integer = false
	}
	d.off = i
	return d.data[start:i], integer
}

// The number readers parse as encoding/json does — strconv on the literal
// at the field's size — and decline what it would refuse: a fraction or
// exponent in an integer field, a negative unsigned one, an overflow.

func (d *scanner) float() float64 {
	lit, _ := d.number()
	if d.bad {
		return 0
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		d.fail()
	}
	return f
}

func (d *scanner) int() int {
	return int(d.signed(strconv.IntSize))
}

func (d *scanner) signed(bits int) int64 {
	lit, integer := d.number()
	if !integer {
		d.fail()
		return 0
	}
	n, err := strconv.ParseInt(string(lit), 10, bits)
	if err != nil {
		d.fail()
	}
	return n
}

func (d *scanner) uint() uint64 {
	lit, integer := d.number()
	if !integer {
		d.fail()
		return 0
	}
	n, err := strconv.ParseUint(string(lit), 10, 64)
	if err != nil {
		d.fail()
	}
	return n
}

func (d *scanner) bool() bool {
	rest := d.data[d.off:]
	switch {
	case bytes.HasPrefix(rest, []byte("true")):
		d.off += 4
		return true
	case bytes.HasPrefix(rest, []byte("false")):
		d.off += 5
	default:
		d.fail()
	}
	return false
}

// quoted returns the next string literal, quotes included. It accepts
// only printable ASCII with no escape, which decodes to its own bytes.
func (d *scanner) quoted() []byte {
	start := d.off
	if !d.skip('"') {
		d.fail()
		return nil
	}
	for i := d.off; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			d.off = i + 1
			return d.data[start:d.off]
		case c < 0x20 || c == '\\' || c >= 0x80:
			d.fail()
			return nil
		}
	}
	d.fail()
	return nil
}

func (d *scanner) str() string {
	q := d.quoted()
	if d.bad {
		return ""
	}
	return string(q[1 : len(q)-1])
}

// time decodes a timestamp with time.Time's own UnmarshalJSON, the method
// encoding/json calls on the same literal.
func (d *scanner) time() (t time.Time) {
	q := d.quoted()
	if d.bad || t.UnmarshalJSON(q) != nil {
		d.fail()
	}
	return t
}
