package core

import (
	"strings"
	"testing"

	"openmeta/internal/machine"
	"openmeta/internal/pbio"
	"openmeta/internal/xmlschema"
)

// schemaDocument is SchemaForFormats rendered as XML text, the form a
// repository serves.
func schemaDocument(targetNamespace string, formats ...*pbio.Format) (string, error) {
	s, err := SchemaForFormats(targetNamespace, formats...)
	if err != nil {
		return "", err
	}
	return xmlschema.MarshalString(s), nil
}

func TestSchemaForFormatsRoundTrip(t *testing.T) {
	// register (XML) -> generate (XML') -> register (XML') must reproduce
	// identical formats, on every architecture.
	for _, arch := range []*machine.Arch{machine.X86, machine.X86_64, machine.Sparc, machine.Sparc64} {
		t.Run(arch.Name, func(t *testing.T) {
			ctx, _ := pbio.NewContext(arch)
			set, err := RegisterDocument(ctx, []byte(schemaCD))
			if err != nil {
				t.Fatal(err)
			}
			doc, err := schemaDocument("urn:test", set.Formats...)
			if err != nil {
				t.Fatal(err)
			}
			ctx2, _ := pbio.NewContext(arch)
			set2, err := RegisterDocument(ctx2, []byte(doc))
			if err != nil {
				t.Fatalf("re-register generated schema: %v\n%s", err, doc)
			}
			if len(set2.Formats) != len(set.Formats) {
				t.Fatalf("format count %d -> %d", len(set.Formats), len(set2.Formats))
			}
			for i, f := range set.Formats {
				if set2.Formats[i].ID != f.ID {
					t.Errorf("format %q changed identity through generation:\n%v\n%v",
						f.Name, f.IOFields(), set2.Formats[i].IOFields())
				}
			}
		})
	}
}

func TestSchemaForFormatsAddsNestedDependencies(t *testing.T) {
	ctx, _ := pbio.NewContext(machine.Sparc)
	set, err := RegisterDocument(ctx, []byte(schemaCD))
	if err != nil {
		t.Fatal(err)
	}
	// Pass only the outer format: the nested one must be pulled in, first.
	s, err := SchemaForFormats("", set.Root())
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Types) != 2 {
		t.Fatalf("types = %d", len(s.Types))
	}
	if s.Types[0].Name != "ASDOffEvent" || s.Types[1].Name != "threeASDOffs" {
		t.Errorf("order = %s, %s", s.Types[0].Name, s.Types[1].Name)
	}
}

func TestSchemaForFormatsImplicitCountElided(t *testing.T) {
	ctx, _ := pbio.NewContext(machine.Sparc)
	set, err := RegisterDocument(ctx, []byte(schemaB))
	if err != nil {
		t.Fatal(err)
	}
	s, err := SchemaForFormats("", set.Root())
	if err != nil {
		t.Fatal(err)
	}
	ct := s.Types[0]
	for _, e := range ct.Elements {
		if e.Name == "eta_count" {
			t.Error("synthesized count field leaked into the generated schema")
		}
		if e.Name == "eta" && e.Array != xmlschema.DynamicArray {
			t.Errorf("eta = %+v, want dynamic array", e)
		}
	}
}

func TestSchemaForFormatsExplicitCountKept(t *testing.T) {
	ctx, _ := pbio.NewContext(machine.X86_64)
	f, err := ctx.RegisterSpec("T", []pbio.FieldSpec{
		{Name: "n", Kind: pbio.Int, CType: machine.CInt},
		{Name: "vals", Kind: pbio.Float, CType: machine.CDouble, Dynamic: true, CountField: "n"},
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := SchemaForFormats("", f)
	if err != nil {
		t.Fatal(err)
	}
	ct := s.Types[0]
	if len(ct.Elements) != 2 {
		t.Fatalf("elements = %+v", ct.Elements)
	}
	if ct.Elements[0].Name != "n" {
		t.Error("explicit count field dropped")
	}
	if ct.Elements[1].Array != xmlschema.CountedArray || ct.Elements[1].CountField != "n" {
		t.Errorf("vals = %+v", ct.Elements[1])
	}
}

func TestSchemaForFormatsAdoptedRemoteFormat(t *testing.T) {
	// The §4.4 scenario: a broker adopts a format from the wire and
	// publishes its XML description.
	ctx, _ := pbio.NewContext(machine.Sparc)
	set, err := RegisterDocument(ctx, []byte(schemaB))
	if err != nil {
		t.Fatal(err)
	}
	remote, err := pbio.UnmarshalMeta(pbio.MarshalMeta(set.Root()))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := schemaDocument("urn:adopted", remote)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(doc, `name="ASDOffEvent"`) {
		t.Errorf("doc = %s", doc)
	}
	// And the document must register back to the same layout on sparc.
	ctx2, _ := pbio.NewContext(machine.Sparc)
	set2, err := RegisterDocument(ctx2, []byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if set2.Root().ID != set.Root().ID {
		t.Error("adopted-format schema does not reproduce the original format")
	}
}

func TestSchemaForFormatsErrors(t *testing.T) {
	if _, err := SchemaForFormats(""); err == nil {
		t.Error("no formats: want error")
	}
	if _, err := SchemaForFormats("", nil); err == nil {
		t.Error("nil format: want error")
	}
	// An 8-byte integer on a 32-bit-long machine has no xsd spelling.
	ctx, _ := pbio.NewContext(machine.Sparc)
	f, err := ctx.RegisterSpec("T", []pbio.FieldSpec{
		{Name: "big", Kind: pbio.Int, CType: machine.CLongLong},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SchemaForFormats("", f); err == nil {
		t.Error("unrepresentable field: want error")
	}
	// Name collision between different formats.
	ctxA, _ := pbio.NewContext(machine.X86)
	fa, _ := ctxA.RegisterSpec("T", []pbio.FieldSpec{{Name: "a", Kind: pbio.Int, CType: machine.CInt}})
	ctxB, _ := pbio.NewContext(machine.X86)
	fb, _ := ctxB.RegisterSpec("T", []pbio.FieldSpec{{Name: "b", Kind: pbio.Int, CType: machine.CInt}})
	if _, err := SchemaForFormats("", fa, fb); err == nil {
		t.Error("conflicting formats with one name: want error")
	}
}
