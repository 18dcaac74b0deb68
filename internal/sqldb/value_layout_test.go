package sqldb

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// The slow path of the Value layout: the 48-byte struct sqldb had before
// a float's bits and a boolean moved into I, with its value functions as
// they were. Every function that reads a Value's payload must agree on
// both layouts, down to the byte of every key and encoding.

type wideValue struct {
	K Kind
	I int64
	F float64
	S string
	B bool
}

// wideOf builds the wide value of kind k%5 from the field that kind uses.
func wideOf(k uint8, i int64, f float64, s string, b bool) wideValue {
	switch k % 5 {
	case 1:
		return wideValue{K: KindInt, I: i}
	case 2:
		return wideValue{K: KindFloat, F: f}
	case 3:
		return wideValue{K: KindString, S: s}
	case 4:
		return wideValue{K: KindBool, B: b}
	}
	return wideValue{}
}

// compact is w in the live layout, built by the live constructors.
func (w wideValue) compact() Value {
	switch w.K {
	case KindInt:
		return Int(w.I)
	case KindFloat:
		return Float(w.F)
	case KindString:
		return Str(w.S)
	case KindBool:
		return Bool(w.B)
	}
	return Null()
}

func (w wideValue) String() string {
	switch w.K {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(w.I, 10)
	case KindFloat:
		return strconv.FormatFloat(w.F, 'g', -1, 64)
	case KindString:
		return w.S
	case KindBool:
		if w.B {
			return "TRUE"
		}
		return "FALSE"
	}
	return "?"
}

func (w wideValue) SQLLiteral() string {
	if w.K == KindString {
		return "'" + strings.ReplaceAll(w.S, "'", "''") + "'"
	}
	return w.String()
}

func (w wideValue) asFloat() float64 {
	if w.K == KindInt {
		return float64(w.I)
	}
	return w.F
}

func (w wideValue) Equal(o wideValue) bool {
	c, ok := w.compare(o)
	return ok && c == 0
}

func (a wideValue) compare(b wideValue) (int, bool) {
	if a.K == KindNull || b.K == KindNull {
		return 0, false
	}
	if (a.K == KindInt || a.K == KindFloat) && (b.K == KindInt || b.K == KindFloat) {
		if a.K == KindInt && b.K == KindInt {
			switch {
			case a.I < b.I:
				return -1, true
			case a.I > b.I:
				return 1, true
			}
			return 0, true
		}
		af, bf := a.asFloat(), b.asFloat()
		switch {
		case af < bf:
			return -1, true
		case af > bf:
			return 1, true
		}
		return 0, true
	}
	if a.K != b.K {
		return 0, false
	}
	switch a.K {
	case KindString:
		return strings.Compare(a.S, b.S), true
	case KindBool:
		switch {
		case a.B == b.B:
			return 0, true
		case !a.B:
			return -1, true
		}
		return 1, true
	}
	return 0, false
}

func (a wideValue) sortCompare(b wideValue) int {
	an, bn := a.K == KindNull, b.K == KindNull
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	}
	if c, ok := a.compare(b); ok {
		return c
	}
	switch {
	case a.K < b.K:
		return -1
	case a.K > b.K:
		return 1
	}
	return 0
}

func (v wideValue) coerce(t ColumnType) (wideValue, error) {
	if v.K == KindNull {
		return v, nil
	}
	switch t {
	case TypeInteger:
		switch v.K {
		case KindInt:
			return v, nil
		case KindFloat:
			return wideValue{K: KindInt, I: int64(v.F)}, nil
		case KindString:
			i, err := strconv.ParseInt(strings.TrimSpace(v.S), 10, 64)
			if err != nil {
				return wideValue{}, fmt.Errorf("sqldb: cannot convert %q to INTEGER", v.S)
			}
			return wideValue{K: KindInt, I: i}, nil
		case KindBool:
			if v.B {
				return wideValue{K: KindInt, I: 1}, nil
			}
			return wideValue{K: KindInt}, nil
		}
	case TypeFloat:
		switch v.K {
		case KindInt:
			return wideValue{K: KindFloat, F: float64(v.I)}, nil
		case KindFloat:
			return v, nil
		case KindString:
			f, err := strconv.ParseFloat(strings.TrimSpace(v.S), 64)
			if err != nil {
				return wideValue{}, fmt.Errorf("sqldb: cannot convert %q to FLOAT", v.S)
			}
			return wideValue{K: KindFloat, F: f}, nil
		}
	case TypeVarchar:
		if v.K == KindString {
			return v, nil
		}
		return wideValue{K: KindString, S: v.String()}, nil
	case TypeBoolean:
		switch v.K {
		case KindBool:
			return v, nil
		case KindInt:
			return wideValue{K: KindBool, B: v.I != 0}, nil
		case KindString:
			switch strings.ToUpper(strings.TrimSpace(v.S)) {
			case "TRUE", "T", "1", "YES":
				return wideValue{K: KindBool, B: true}, nil
			case "FALSE", "F", "0", "NO":
				return wideValue{K: KindBool}, nil
			}
			return wideValue{}, fmt.Errorf("sqldb: cannot convert %q to BOOLEAN", v.S)
		}
	}
	return wideValue{}, fmt.Errorf("sqldb: cannot convert %s to %s", v.K, t)
}

func (v wideValue) appendKey(b []byte) []byte {
	if v.K == KindFloat && v.F == float64(int64(v.F)) {
		v = wideValue{K: KindInt, I: int64(v.F)}
	}
	switch v.K {
	case KindInt:
		return append(strconv.AppendInt(append(b, 'i'), v.I, 10), 0)
	case KindFloat:
		return append(strconv.AppendFloat(append(b, 'f'), v.F, 'g', -1, 64), 0)
	case KindString:
		b = append(strconv.AppendInt(append(b, 's'), int64(len(v.S)), 10), ':')
		return append(b, v.S...)
	case KindBool:
		if v.B {
			return append(b, 'T')
		}
		return append(b, 'F')
	}
	return append(b, 'n')
}

func (v wideValue) appendValueKey(b []byte) []byte {
	return v.appendKey(append(b, '0'+byte(v.K)))
}

func (v wideValue) encode() string {
	switch v.K {
	case KindInt:
		return "i:" + strconv.FormatInt(v.I, 10)
	case KindFloat:
		return "f:" + strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return "s:" + v.S
	case KindBool:
		if v.B {
			return "b:t"
		}
		return "b:f"
	}
	return "n"
}

// sameAsWide reports whether a compact value holds what a wide one does,
// bit for bit: a float's bits, a boolean's truth, an integer, a string.
func sameAsWide(v Value, w wideValue) bool {
	if v.K != w.K || v.S != w.S {
		return false
	}
	switch v.K {
	case KindFloat:
		return math.Float64bits(v.F()) == math.Float64bits(w.F)
	case KindBool:
		return v.B() == w.B
	}
	return v.I == w.I
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkLayout compares every payload-reading function on a and b in
// both layouts.
func checkLayout(t *testing.T, a, b wideValue) {
	t.Helper()
	ca, cb := a.compact(), b.compact()
	if !sameAsWide(ca, a) {
		t.Fatalf("%#v built as %#v", a, ca)
	}
	c, ok := ca.compare(&cb)
	if wc, wok := a.compare(b); c != wc || ok != wok {
		t.Fatalf("compare(%#v, %#v) = %d %v, wide %d %v", a, b, c, ok, wc, wok)
	}
	if got, want := sortCompare(ca, cb), a.sortCompare(b); got != want {
		t.Fatalf("sortCompare(%#v, %#v) = %d, wide %d", a, b, got, want)
	}
	if got, want := ca.Equal(cb), a.Equal(b); got != want {
		t.Fatalf("Equal(%#v, %#v) = %v, wide %v", a, b, got, want)
	}
	for _, ty := range []ColumnType{TypeInteger, TypeFloat, TypeVarchar, TypeBoolean} {
		got, err := coerce(ca, ty)
		want, werr := a.coerce(ty)
		if errString(err) != errString(werr) || err == nil && !sameAsWide(got, want) {
			t.Fatalf("coerce(%#v, %s) = %#v %v, wide %#v %v", a, ty, got, err, want, werr)
		}
	}
	if got, want := string(appendKey(nil, ca)), string(a.appendKey(nil)); got != want {
		t.Fatalf("appendKey(%#v) = %q, wide %q", a, got, want)
	}
	if got, want := string(appendValueKey(nil, ca)), string(a.appendValueKey(nil)); got != want {
		t.Fatalf("appendValueKey(%#v) = %q, wide %q", a, got, want)
	}
	enc := EncodeValue(ca)
	if want := a.encode(); enc != want {
		t.Fatalf("EncodeValue(%#v) = %q, wide %q", a, enc, want)
	}
	dec, err := DecodeValue(enc)
	if err != nil {
		t.Fatalf("DecodeValue(%q): %v", enc, err)
	}
	// The encoding is exact except for a NaN's payload.
	if dec != ca && !(ca.K == KindFloat && math.IsNaN(ca.F()) && math.IsNaN(dec.F())) {
		t.Fatalf("DecodeValue(EncodeValue(%#v)) = %#v", a, dec)
	}
	if got, want := ca.String(), a.String(); got != want {
		t.Fatalf("String(%#v) = %q, wide %q", a, got, want)
	}
	if got, want := ca.SQLLiteral(), a.SQLLiteral(); got != want {
		t.Fatalf("SQLLiteral(%#v) = %q, wide %q", a, got, want)
	}
}

var layoutFloats = []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 2.5, -7.75, 1e300, -1e-300,
	math.NaN(), math.Inf(1), math.Inf(-1), 1 << 53, 1<<53 + 2, 1 << 63, -(1 << 63), math.MaxFloat64,
	math.SmallestNonzeroFloat64}

var layoutInts = []int64{0, 1, -1, 2, 42, -7, 1 << 53, 1<<53 + 1, math.MaxInt64, math.MinInt64, math.MaxInt64 - 1}

var layoutStrings = []string{"", "a", "0", "1", " 2 ", "-0", "2.5", "NaN", "true", "no", "T", "x'y", "é", "日本語", "a\x00b", "1e400"}

// randomWide draws from the special values above and from random ones.
func randomWide(rng *rand.Rand) wideValue {
	i := layoutInts[rng.Intn(len(layoutInts))]
	f := layoutFloats[rng.Intn(len(layoutFloats))]
	s := layoutStrings[rng.Intn(len(layoutStrings))]
	if rng.Intn(2) == 0 {
		i, f = rng.Int63n(200)-100, float64(rng.Intn(200)-100)/float64(1+rng.Intn(8))
		s = strconv.FormatInt(i, 10)
	}
	return wideOf(uint8(rng.Intn(5)), i, f, s, rng.Intn(2) == 0)
}

func TestValueLayoutMatchesWide(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Fatalf("a Value is %d bytes, not 32", got)
	}
	for _, f := range layoutFloats {
		if got := Float(f).F(); math.Float64bits(got) != math.Float64bits(f) {
			t.Fatalf("Float(%v).F() = %v (bits %x, want %x)", f, got, math.Float64bits(got), math.Float64bits(f))
		}
	}
	var specials []wideValue
	for _, i := range layoutInts {
		specials = append(specials, wideValue{K: KindInt, I: i})
	}
	for _, f := range layoutFloats {
		specials = append(specials, wideValue{K: KindFloat, F: f})
	}
	for _, s := range layoutStrings {
		specials = append(specials, wideValue{K: KindString, S: s})
	}
	specials = append(specials, wideValue{}, wideValue{K: KindBool}, wideValue{K: KindBool, B: true})
	for _, a := range specials {
		for _, b := range specials {
			checkLayout(t, a, b)
		}
	}
	rng := rand.New(rand.NewSource(34))
	for i := 0; i < 20000; i++ {
		checkLayout(t, randomWide(rng), randomWide(rng))
	}

	// 0.0 and -0.0 differ in their bits, which a float keeps in I, but
	// are one group, one DISTINCT value and one index key.
	db := Open("zeros")
	db.MustExec("CREATE TABLE z (f FLOAT, n INTEGER)")
	db.MustExec("CREATE INDEX z_f ON z (f)")
	for i, f := range []float64{0, math.Copysign(0, -1), 0, math.Copysign(0, -1)} {
		db.MustExec("INSERT INTO z VALUES (?, ?)", Float(f), Int(int64(i)))
	}
	if r := mustQuery(t, db, "SELECT f, COUNT(*) FROM z GROUP BY f"); len(r.Rows) != 1 || r.Rows[0][1] != Int(4) {
		t.Fatalf("GROUP BY over ±0: %v", r.Rows)
	}
	if r := mustQuery(t, db, "SELECT COUNT(DISTINCT f) FROM z"); r.Rows[0][0] != Int(1) {
		t.Fatalf("COUNT(DISTINCT) over ±0: %v", r.Rows)
	}
	if r := mustQuery(t, db, "SELECT n FROM z WHERE f = ?", Float(math.Copysign(0, -1))); len(r.Rows) != 4 {
		t.Fatalf("index probe for -0: %v", r.Rows)
	}
}

// FuzzValueLayout: for any two values, the compact and the wide layout
// agree on every function checkLayout compares.
func FuzzValueLayout(f *testing.F) {
	f.Add(uint8(2), int64(0), math.Copysign(0, -1), "", false, uint8(1), int64(0), 0.0, "", false)
	f.Add(uint8(2), int64(0), math.NaN(), "", false, uint8(2), int64(0), math.Inf(-1), "", false)
	f.Add(uint8(1), int64(math.MinInt64), 0.0, "", false, uint8(2), int64(0), float64(-(1 << 63)), "", false)
	f.Add(uint8(3), int64(0), 0.0, "1", false, uint8(4), int64(0), 0.0, "", true)
	f.Add(uint8(3), int64(0), 0.0, "日本'", false, uint8(3), int64(0), 0.0, "", false)
	f.Add(uint8(0), int64(0), 0.0, "", false, uint8(4), int64(1), 0.0, "", false)
	f.Fuzz(func(t *testing.T, k1 uint8, i1 int64, f1 float64, s1 string, b1 bool,
		k2 uint8, i2 int64, f2 float64, s2 string, b2 bool) {
		checkLayout(t, wideOf(k1, i1, f1, s1, b1), wideOf(k2, i2, f2, s2, b2))
	})
}
