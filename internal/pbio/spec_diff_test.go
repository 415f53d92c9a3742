package pbio_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"openmeta/internal/machine"
	"openmeta/internal/pbio"
	"openmeta/internal/testutil"
)

// TEMPORARY differential run: RegisterSpec filling Fields directly against
// the FieldSpec -> IOField{Type: "double[n]"} -> Register round trip it
// replaces.

func oldRegisterSpec(c *pbio.Context, name string, specs []pbio.FieldSpec) (*pbio.Format, error) {
	arch := c.Arch()
	members := make([]machine.Member, len(specs))
	elemSizes := make([]int, len(specs))
	for i, s := range specs {
		switch s.Kind {
		case pbio.String:
			if s.Dynamic {
				return nil, fmt.Errorf("dynamic strings")
			}
			members[i] = machine.Member{Name: s.Name, Type: machine.CPointer, Count: s.Count}
			elemSizes[i] = arch.PointerSize
		case pbio.Nested:
			nested, ok := c.Lookup(s.NestedName)
			if !ok {
				return nil, pbio.ErrUnknownFormat
			}
			elemSizes[i] = nested.Size
			if s.Dynamic {
				members[i] = machine.Member{Name: s.Name, Type: machine.CPointer}
			} else {
				shell := &machine.Layout{Arch: arch, Size: nested.Size, Align: nested.Align}
				members[i] = machine.Member{Name: s.Name, Record: shell, Count: s.Count}
			}
		default:
			elemSizes[i] = arch.SizeOf(s.CType)
			if s.Dynamic {
				members[i] = machine.Member{Name: s.Name, Type: machine.CPointer}
			} else {
				members[i] = machine.Member{Name: s.Name, Type: s.CType, Count: s.Count}
			}
		}
	}
	layout, err := machine.LayOut(arch, members)
	if err != nil {
		return nil, err
	}
	ios := make([]pbio.IOField, len(specs))
	for i, s := range specs {
		base := s.Kind.String()
		if s.Kind == pbio.Nested {
			base = s.NestedName
		}
		switch {
		case s.Dynamic:
			base = fmt.Sprintf("%s[%s]", base, s.CountField)
		case s.Count > 1:
			base = fmt.Sprintf("%s[%d]", base, s.Count)
		}
		ios[i] = pbio.IOField{Name: s.Name, Type: base, Size: elemSizes[i], Offset: layout.Fields[i].Offset}
	}
	return c.Register(name, ios)
}

func TestDifferentialRegisterSpec(t *testing.T) {
	formats := 0
	for seed := int64(1); seed <= 500; seed++ {
		gs := testutil.NewGenSchema(seed)
		for _, name := range machine.ArchNames() {
			arch, _ := machine.ArchByName(name)
			oldCtx, _ := pbio.NewContext(arch)
			newCtx, _ := pbio.NewContext(arch)
			for _, gf := range gs.Formats {
				want, err := oldRegisterSpec(oldCtx, gf.Name, gf.Fields)
				if err != nil {
					t.Fatalf("seed %d %s %s: old: %v", seed, name, gf.Name, err)
				}
				got, err := newCtx.RegisterSpec(gf.Name, gf.Fields)
				if err != nil {
					t.Fatalf("seed %d %s %s: new: %v", seed, name, gf.Name, err)
				}
				if want.ID != got.ID || want.Size != got.Size || want.Align != got.Align ||
					!reflect.DeepEqual(want.IOFields(), got.IOFields()) ||
					!bytes.Equal(pbio.MarshalMeta(want), pbio.MarshalMeta(got)) {
					t.Fatalf("seed %d %s %s:\n old %x %d/%d %+v\n new %x %d/%d %+v", seed, name, gf.Name,
						want.ID, want.Size, want.Align, want.IOFields(), got.ID, got.Size, got.Align, got.IOFields())
				}
				formats++
			}
		}
	}
	t.Logf("%d formats registered both ways", formats)
}
