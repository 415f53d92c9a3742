package testutil

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"openmeta/internal/pbio"
)

// Reboxed copies a decoded value with every scalar, string and array in a
// heap box of its own, the way Go's conversion boxes it. reflect.New makes
// the copy addressable, and Interface copies an addressable value;
// reflect.ValueOf(v).Interface() alone would hand back v's own data word.
func Reboxed(v interface{}) interface{} {
	switch x := v.(type) {
	case nil:
		return nil
	case pbio.Record:
		out := make(pbio.Record, len(x))
		for k, e := range x {
			out[k] = Reboxed(e)
		}
		return out
	case []pbio.Record:
		out := make([]pbio.Record, len(x))
		for i, r := range x {
			out[i] = Reboxed(r).(pbio.Record)
		}
		return out
	}
	c := reflect.New(reflect.TypeOf(v)).Elem()
	c.Set(reflect.ValueOf(v))
	return c.Interface()
}

// CheckReboxed fails unless rec, a record whose values a decoder boxed from
// its block, and its heap-boxed copy agree under reflect.DeepEqual, fmt.Sprint
// and encoding/json. NaN is unequal to itself under DeepEqual, so a record
// that prints one is compared by its printed and marshalled forms alone.
func CheckReboxed(t testing.TB, what string, rec pbio.Record) {
	t.Helper()
	ref := Reboxed(rec).(pbio.Record)
	got, want := fmt.Sprint(rec), fmt.Sprint(ref)
	if got != want {
		t.Fatalf("%s: fmt.Sprint of the decoded record\n%s\ndiffers from its heap-boxed copy\n%s", what, got, want)
	}
	if !strings.Contains(got, "NaN") && !reflect.DeepEqual(rec, ref) {
		t.Fatalf("%s: decoded record is not DeepEqual to its heap-boxed copy", what)
	}
	gj, gerr := json.Marshal(rec)
	wj, werr := json.Marshal(ref)
	if (gerr == nil) != (werr == nil) || string(gj) != string(wj) {
		t.Fatalf("%s: json.Marshal = %s (err %v), heap-boxed copy %s (err %v)", what, gj, gerr, wj, werr)
	}
}
