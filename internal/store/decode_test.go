package store

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

// populatedOp is an op with every field set, in printable ASCII.
func populatedOp() Op {
	return Op{
		Kind: OpPartial, Version: 3,
		Tasks: []int{4, 0}, Answers: []bool{true, false}, Batch: []int{4, 0, 7},
		Workers: []string{"w01", "anon"}, Sources: []string{"mturk", "panel-2"},
		Sens: []float64{0.8380000000000001, 1e-07}, Spec: []float64{5e-324, 1.0 / 3},
		Epoch: 9, Time: time.Date(2026, 3, 1, 12, 30, 5, 123456789, time.UTC),
	}
}

// populatedRecord is a record with every field set, its prior in both
// shapes at once, in printable ASCII.
func populatedRecord() *Record {
	return &Record{
		ID: "sess-full", Selector: "Approx+Prune+Pre", Pc: 0.8, K: 3, Budget: 30, Seed: -7,
		Prior: Prior{Marginals: []float64{0.25, 0.5}, N: 2, Worlds: []uint64{0, 3, math.MaxUint64},
			Probs: []float64{0.2, 0.3, 0.5}},
		Created:    time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC),
		LastAccess: time.Date(2026, 3, 1, 13, 0, 0, 1, time.FixedZone("", -5*3600)),
		Ops:        []Op{{Kind: OpMerge, Version: 0, Tasks: []int{1}, Answers: []bool{true}}, populatedOp()},
		LeaseEpoch: 4, WorkerModel: "dawid-skene",
	}
}

// zeroFields lists the fields of a struct value left at their zero value,
// looking into embedded structs, so a test that means to set every field
// notices one added later.
func zeroFields(v reflect.Value) []string {
	var zero []string
	for i := 0; i < v.NumField(); i++ {
		f, sf := v.Field(i), v.Type().Field(i)
		if sf.Anonymous {
			zero = append(zero, zeroFields(reflect.Indirect(f))...)
		} else if f.IsZero() {
			zero = append(zero, sf.Name)
		}
	}
	return zero
}

// jsonTags lists a struct's JSON keys in field order, less its embedded
// fields.
func jsonTags(t reflect.Type) []string {
	var tags []string
	for i := 0; i < t.NumField(); i++ {
		if f := t.Field(i); !f.Anonymous {
			tags = append(tags, strings.Split(f.Tag.Get("json"), ",")[0])
		}
	}
	return tags
}

// TestScannerKeysMatchTags: the scanner reads each struct's keys in the
// order json.Marshal writes them, so a field added to the journal's
// structs fails here instead of sending every load to json.Unmarshal.
func TestScannerKeysMatchTags(t *testing.T) {
	for _, c := range []struct {
		keys []string
		v    any
	}{
		{snapshotKeys, snapshot{}},
		{recordKeys, Record{}},
		{priorKeys, Prior{}},
		{logLineKeys, logLine{}},
		{opKeys, Op{}},
	} {
		typ := reflect.TypeOf(c.v)
		if tags := jsonTags(typ); !slices.Equal(c.keys, tags) {
			t.Errorf("%s: scanner reads %q, struct tags are %q", typ.Name(), c.keys, tags)
		}
	}
}

// TestScannerReadsPopulatedJournal: a snapshot and a log line with every
// field set take the scanner's path, not the fallback, and decode to what
// json.Unmarshal makes of them.
func TestScannerReadsPopulatedJournal(t *testing.T) {
	rec, line := populatedRecord(), logLine{Line: 12, Op: populatedOp()}
	snap := snapshot{Format: snapshotFormat, Absorbed: 11, Record: rec}
	for name, v := range map[string]reflect.Value{
		"snapshot": reflect.ValueOf(snap), "prior": reflect.ValueOf(rec.Prior), "log line": reflect.ValueOf(line),
	} {
		if zero := zeroFields(v); len(zero) > 0 {
			t.Fatalf("%s leaves %v unset: populate every field", name, zero)
		}
	}

	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	gotSnap, ok := scanSnapshot(data)
	if !ok {
		t.Fatalf("scanner declined a populated snapshot:\n%s", data)
	}
	wantSnap := snapshot{Record: &Record{}}
	if err := json.Unmarshal(data, &wantSnap); err != nil || !reflect.DeepEqual(gotSnap, wantSnap) {
		t.Fatalf("snapshot: scanner %+v, json.Unmarshal %+v (%v)", gotSnap.Record, wantSnap.Record, err)
	}

	if data, err = json.Marshal(line); err != nil {
		t.Fatal(err)
	}
	gotLine, ok := scanLine(data)
	if !ok {
		t.Fatalf("scanner declined a populated log line:\n%s", data)
	}
	var wantLine logLine
	if err := json.Unmarshal(data, &wantLine); err != nil || !reflect.DeepEqual(gotLine, wantLine) {
		t.Fatalf("log line: scanner %+v, json.Unmarshal %+v (%v)", gotLine, wantLine, err)
	}
}

// randomOp is an op with each field present or omitted at random, over
// extreme numbers, timestamps in several zones and ASCII strings
// json.Marshal writes unescaped.
func randomOp(rng *rand.Rand) Op {
	const alphabet = "abcXYZ019-_+.:/ ~!@#$%^*()[]{},;=?'`|"
	str := func() string {
		b := make([]byte, 1+rng.Intn(6))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	num := func() float64 {
		switch rng.Intn(6) {
		case 0:
			return math.Float64frombits(rng.Uint64() &^ (0x7ff << 52)) // subnormal or zero
		case 1:
			return math.Copysign(0, -1)
		case 2:
			return float64(rng.Intn(3)) // written without a fraction
		case 3:
			return math.Ldexp(rng.Float64(), rng.Intn(2000)-1000)
		default:
			return rng.Float64()
		}
	}
	n := 1 + rng.Intn(4)
	op := Op{Kind: []string{OpMerge, OpDone, OpPartial, OpObserve, str()}[rng.Intn(5)],
		Version: rng.Intn(100) - 1}
	if rng.Intn(2) == 0 {
		op.Version = []int{math.MinInt, math.MaxInt}[rng.Intn(2)]
	}
	if rng.Intn(3) > 0 {
		op.Tasks, op.Answers = make([]int, n), make([]bool, n)
		for i := range op.Tasks {
			op.Tasks[i], op.Answers[i] = rng.Intn(20)-1, rng.Intn(2) == 0
		}
	}
	if rng.Intn(3) == 0 {
		op.Batch = []int{rng.Intn(20), math.MaxInt}
	}
	if rng.Intn(2) == 0 {
		op.Workers = []string{str(), str()}
	}
	if rng.Intn(3) == 0 {
		op.Sources = []string{str()}
	}
	if rng.Intn(2) == 0 {
		op.Sens, op.Spec = []float64{num(), num()}, []float64{num()}
	}
	if rng.Intn(2) == 0 {
		op.Epoch = rng.Uint64()
	}
	if rng.Intn(3) > 0 {
		zone := []*time.Location{time.UTC, time.Local, time.FixedZone("", 5*3600+1800),
			time.FixedZone("X", -11*3600)}[rng.Intn(4)]
		op.Time = time.Unix(rng.Int63n(1<<34)-1<<32, rng.Int63n(1e9)).In(zone)
	}
	return op
}

// TestScannerMatchesUnmarshal: over random records and log lines in
// json.Marshal's form, the scanner accepts every one and decodes it to
// what json.Unmarshal does.
func TestScannerMatchesUnmarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		data, err := json.Marshal(logLine{Line: rng.Uint64() >> rng.Intn(64), Op: randomOp(rng)})
		if err != nil {
			t.Fatal(err)
		}
		got, ok := scanLine(data)
		var want logLine
		if err := json.Unmarshal(data, &want); !ok || err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s:\nscanner (ok %v) %+v\n   json (%v) %+v", data, ok, got, err, want)
		}
	}
	for i := 0; i < 500; i++ {
		rec := populatedRecord()
		rec.Pc, rec.K, rec.Budget, rec.Seed = rng.NormFloat64(), rng.Intn(5), rng.Intn(100), rng.Int63()-rng.Int63()
		if rng.Intn(2) == 0 {
			rec.Prior = Prior{Marginals: []float64{rng.Float64(), 1}}
		} else {
			rec.Prior = Prior{N: 3, Worlds: []uint64{rng.Uint64(), 0}, Probs: []float64{rng.Float64(), 0.5}}
		}
		rec.Ops = nil
		for range rng.Intn(6) {
			rec.Ops = append(rec.Ops, randomOp(rng))
		}
		if rng.Intn(2) == 0 {
			rec.LeaseEpoch, rec.WorkerModel = 0, ""
		}
		data, err := json.Marshal(snapshot{Format: rng.Intn(3), Absorbed: rng.Uint64(), Record: rec})
		if err != nil {
			t.Fatal(err)
		}
		got, ok := scanSnapshot(data)
		want := snapshot{Record: &Record{}}
		if err := json.Unmarshal(data, &want); !ok || err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s:\nscanner (ok %v) %+v\n   json (%v) %+v", data, ok, got.Record, err, want.Record)
		}
	}
}

// FuzzJournalDecode: on any bytes, decodeSnapshot and decodeLine agree
// with json.Unmarshal — both fail, or both succeed with equal values. The
// seeds are json.Marshal's form of every op kind and both prior shapes,
// and variants of it the scanner must leave to json.Unmarshal.
func FuzzJournalDecode(f *testing.F) {
	marshal := func(v any) string {
		data, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		return string(data)
	}
	at := time.Date(2026, 3, 1, 12, 30, 5, 123456789, time.UTC)
	for _, op := range []Op{
		{Kind: OpMerge, Version: 2, Tasks: []int{0, 3}, Answers: []bool{true, false},
			Sens: []float64{0.9, 0.75}, Spec: []float64{0.85, 1e-07}, Epoch: 1, Time: at},
		{Kind: OpDone, Version: 5, Time: at},
		{Kind: OpPartial, Version: 1, Tasks: []int{4}, Answers: []bool{true}, Batch: []int{4, 2}, Time: at},
		{Kind: OpObserve, Version: 0, Tasks: []int{1, 2}, Answers: []bool{false, true},
			Workers: []string{"w01", "w02"}, Sources: []string{"mturk", "panel"}, Time: at},
	} {
		f.Add([]byte(marshal(logLine{Line: 7, Op: op})))
	}
	marginals := testRecord("fuzz")
	marginals.Prior = Prior{Marginals: []float64{0.5, 0.25}}
	for _, rec := range []*Record{testRecord("fuzz"), marginals, populatedRecord()} {
		f.Add([]byte(marshal(snapshot{Format: snapshotFormat, Absorbed: 3, Record: rec})))
	}
	for _, s := range []string{
		`{"version":2,"op":"merge","line":7}`,                                                       // reordered keys
		`{"line":7, "op":"merge","version":2}`,                                                      // whitespace
		"{\"line\":7,\"op\":\"done\",\"version\":2}\n",                                              // trailing newline
		`{"LINE":7,"Op":"merge","version":2}`,                                                       // upper-case keys
		`{"line":7,"op":"merge","version":2,"tasks":null}`,                                          // null
		`{"line":7,"op":"merge","version":2,"tasks":[]}`,                                            // empty array
		`{"line":07,"op":"merge","version":2}`,                                                      // leading zero
		`{"line":7,"op":"merge","version":1.0}`,                                                     // fraction in an int field
		`{"line":-1,"op":"merge","version":2}`,                                                      // negative unsigned
		`{"line":7,"op":"merge","version":99999999999999999999}`,                                    // overflow
		`{"line":7,"op":"observe","version":0,"tasks":[1],"answers":[true],"workers":["w\u00301"]}`, // escaped worker
		`{"line":7,"op":"observe","version":0,"tasks":[1],"answers":[true],"workers":["wé"]}`,       // non-ASCII worker
		`{"line":7,"op":"merge","version":2,"seq":4}`,                                               // unknown key
		`{"line":7,"op":"merge","version":2,"time":"2026-13-01T00:00:00Z"}`,                         // bad time
		`{"format":2,"absorbed":0,"id":"a","prior":{"n":1,"worlds":[1],"probs":[1]},"created":"2026-03-01T12:00:00Z","last_access":"2026-03-01T12:00:00+01:00"}`,
		`{"id":"a","selector":"Random","prior":{},"created":"0001-01-01T00:00:00Z","last_access":"0001-01-01T00:00:00Z","done":true,"pending_tasks":[1]}`, // split layout
		`{"format":2,"absorbed":0,"id":"a","ops":[{"op":"merge","version":0,"tasks":[1],"answers":[tru]}]}`,
		`null`,
		``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := decodeSnapshot(data)
		wantSnap := snapshot{Record: &Record{}}
		wantErr := json.Unmarshal(data, &wantSnap)
		if (err == nil) != (wantErr == nil) || !reflect.DeepEqual(snap, wantSnap) {
			t.Fatalf("snapshot %q:\ndecoder (%v) %+v\n   json (%v) %+v", data, err, snap.Record, wantErr, wantSnap.Record)
		}
		line, err := decodeLine(data)
		var wantLine logLine
		wantErr = json.Unmarshal(data, &wantLine)
		if (err == nil) != (wantErr == nil) || !reflect.DeepEqual(line, wantLine) {
			t.Fatalf("log line %q:\ndecoder (%v) %+v\n   json (%v) %+v", data, err, line, wantErr, wantLine)
		}
	})
}

// BenchmarkFileGet measures loading an em session through File.Get, the
// read an adopting GET makes: 10 marginals, k=2, and per round an observe
// op attributing two judgments to workers and a merge op carrying the
// channels it was conditioned on, as the service journals them. The
// snapshot holds the first three quarters of the rounds and the log the
// rest, so a load decodes both and folds the log's ops.
func BenchmarkFileGet(b *testing.B) {
	for _, rounds := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("rounds=%d", rounds), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			at := time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)
			rec := &Record{ID: "bench", Selector: "Approx+Prune+Pre", Pc: 0.8, K: 2, Budget: 2 * rounds,
				Seed: 3, Created: at, LastAccess: at, WorkerModel: "em"}
			for range 10 {
				rec.Prior.Marginals = append(rec.Prior.Marginals, rng.Float64())
			}
			var ops []Op
			for r := range rounds {
				at = at.Add(time.Duration(rng.Int63n(int64(time.Second))))
				tasks := []int{rng.Intn(10), rng.Intn(10)}
				answers := []bool{rng.Intn(2) == 0, rng.Intn(2) == 0}
				ops = append(ops,
					Op{Kind: OpObserve, Version: r, Tasks: tasks, Answers: answers,
						Workers: []string{fmt.Sprintf("w%02d", rng.Intn(12)), fmt.Sprintf("w%02d", rng.Intn(12))}, Time: at},
					Op{Kind: OpMerge, Version: r, Tasks: tasks, Answers: answers,
						Sens: []float64{rng.Float64(), rng.Float64()}, Spec: []float64{rng.Float64(), rng.Float64()}, Time: at})
			}
			split := 2 * (rounds - rounds/4)
			rec.Ops = ops[:split]
			s, err := NewFile(b.TempDir(), 0)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			if err := s.Put(rec); err != nil {
				b.Fatal(err)
			}
			for _, op := range ops[split:] {
				if err := s.Append(rec.ID, op); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, err := s.Get(rec.ID)
				if err != nil {
					b.Fatal(err)
				}
				if len(got.Ops) != len(ops) {
					b.Fatalf("%d ops, want %d", len(got.Ops), len(ops))
				}
			}
		})
	}
}
