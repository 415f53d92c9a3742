package bench

import (
	"fmt"
	"strings"

	"openmeta/internal/machine"
	"openmeta/internal/pbio"
)

// --- Table 9: xml2wire registration scaling ---------------------------------

// table9Ops builds Table 9's operations: per field count, xml2wire on a
// synthetic schema (its Bytes the document's length), then registration
// alone of the same fields from specs.
func table9Ops() []Op {
	var ops []Op
	for _, nFields := range []int{4, 8, 16, 32, 64, 128} {
		doc, specs := SyntheticSchema(nFields), syntheticSpecs(nFields)
		n := fmt.Sprintf("/fields=%d", nFields)
		ops = append(ops,
			Op{"parse+register" + n, len(doc), func() error { _, err := RegisterXML(doc); return err }},
			Op{Name: "register" + n, Run: func() error {
				ctx, err := pbio.NewContext(machine.Sparc)
				if err != nil {
					return err
				}
				_, err = ctx.RegisterSpec("S", specs)
				return err
			}},
		)
	}
	return ops
}

// Table9 extends Table 1's observation — "the time required to parse
// metadata grows proportionally to the structure size" — with a direct
// scaling sweep over field count, separating the XML-parse and PBIO-register
// components.
func Table9(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "Table 9",
		Caption: "Registration cost vs field count (xml2wire decomposed)",
		Headers: []string{"Fields", "Schema bytes", "Parse+register", "Register only", "Parse share", "Allocs parse+register / register"},
		Notes: []string{
			"expected shape: both components linear in field count; parsing dominates xml2wire",
		},
	}
	res, err := measure(cfg, table9Ops())
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(res); i += 2 {
		full, reg := res[i], res[i+1]
		_, fields := nameParts(full.Name)
		share := 100 * float64(full.T-reg.T) / float64(full.T)
		t.AddRow(strings.TrimPrefix(fields, "fields="), full.Bytes, full.T, reg.T, fmt.Sprintf("%.0f%%", share),
			fmt.Sprintf("%d / %d", full.Allocs, reg.Allocs))
	}
	return t, nil
}

// SyntheticSchema builds a schema document with nFields elements of mixed
// primitive types.
func SyntheticSchema(nFields int) []byte {
	doc := `<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema">
  <xsd:complexType name="S">`
	for i := 0; i < nFields; i++ {
		switch i % 3 {
		case 0:
			doc += fmt.Sprintf("\n    <xsd:element name=\"f%d\" type=\"xsd:integer\" />", i)
		case 1:
			doc += fmt.Sprintf("\n    <xsd:element name=\"f%d\" type=\"xsd:double\" />", i)
		default:
			doc += fmt.Sprintf("\n    <xsd:element name=\"f%d\" type=\"xsd:string\" />", i)
		}
	}
	doc += "\n  </xsd:complexType>\n</xsd:schema>"
	return []byte(doc)
}

func syntheticSpecs(nFields int) []pbio.FieldSpec {
	specs := make([]pbio.FieldSpec, nFields)
	for i := range specs {
		name := fmt.Sprintf("f%d", i)
		switch i % 3 {
		case 0:
			specs[i] = pbio.FieldSpec{Name: name, Kind: pbio.Int, CType: machine.CInt}
		case 1:
			specs[i] = pbio.FieldSpec{Name: name, Kind: pbio.Float, CType: machine.CDouble}
		default:
			specs[i] = pbio.FieldSpec{Name: name, Kind: pbio.String}
		}
	}
	return specs
}
