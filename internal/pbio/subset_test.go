package pbio

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"openmeta/internal/machine"
)

func TestDeriveSubsetLayout(t *testing.T) {
	f := registerB(t, machine.Sparc)
	sub, err := DeriveSubset(f, []string{"cntrID", "fltNum"})
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.Fields) != 2 {
		t.Fatalf("fields = %d", len(sub.Fields))
	}
	if sub.Fields[0].Name != "cntrID" || sub.Fields[0].Offset != 0 {
		t.Errorf("cntrID = %+v", sub.Fields[0])
	}
	if sub.Fields[1].Name != "fltNum" || sub.Fields[1].Offset != 4 {
		t.Errorf("fltNum = %+v", sub.Fields[1])
	}
	if sub.Size != 8 {
		t.Errorf("size = %d", sub.Size)
	}
	if !strings.HasPrefix(sub.Name, "ASDOffEvent#") {
		t.Errorf("name = %q", sub.Name)
	}
	if sub.ID == f.ID {
		t.Error("subset shares the full format's ID")
	}
}

func TestDeriveSubsetPullsCountField(t *testing.T) {
	f := registerB(t, machine.X86_64)
	sub, err := DeriveSubset(f, []string{"eta"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sub.FieldByName("eta_count"); !ok {
		t.Fatal("count field not pulled into subset")
	}
	// The subset must encode and decode on its own.
	data, err := sub.Encode(Record{"eta": []uint64{5, 6, 7}})
	if err != nil {
		t.Fatal(err)
	}
	out, err := sub.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out["eta"], []uint64{5, 6, 7}) {
		t.Errorf("eta = %v", out["eta"])
	}
}

func TestDeriveSubsetMetaRoundTrips(t *testing.T) {
	f := registerB(t, machine.Sparc)
	sub, err := DeriveSubset(f, []string{"dest", "off"})
	if err != nil {
		t.Fatal(err)
	}
	g, err := UnmarshalMeta(MarshalMeta(sub))
	if err != nil {
		t.Fatal(err)
	}
	if g.ID != sub.ID {
		t.Error("subset metadata does not round-trip")
	}
}

func TestDeriveSubsetErrors(t *testing.T) {
	f := registerB(t, machine.X86)
	if _, err := DeriveSubset(f, []string{"nope"}); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := DeriveSubset(f, nil); !errors.Is(err, ErrEmptySubset) {
		t.Errorf("empty subset err = %v", err)
	}
}

// TestDeriveSubsetRejectsRepeatedField: a field named twice would be one
// more name for a slice that already has one. A count field named beside
// the dynamic array that pulls it in is not a repeat.
func TestDeriveSubsetRejectsRepeatedField(t *testing.T) {
	f := registerB(t, machine.X86)
	if _, err := DeriveSubset(f, []string{"cntrID", "dest", "cntrID"}); err == nil {
		t.Error("a field named twice was accepted")
	}
	sub, err := DeriveSubset(f, []string{"eta", "eta_count"})
	if err != nil {
		t.Fatalf("a dynamic array with its count field named: %v", err)
	}
	if len(sub.Fields) != 2 {
		t.Errorf("fields = %d, want 2", len(sub.Fields))
	}
}

func TestDeriveSubsetPreservesOriginalOrder(t *testing.T) {
	f := registerB(t, machine.X86)
	sub, err := DeriveSubset(f, []string{"dest", "cntrID"}) // reversed request
	if err != nil {
		t.Fatal(err)
	}
	if sub.Fields[0].Name != "cntrID" || sub.Fields[1].Name != "dest" {
		t.Errorf("order = %v, %v (must follow the source format)",
			sub.Fields[0].Name, sub.Fields[1].Name)
	}
}
