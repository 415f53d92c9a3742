package xmlschema_test

import (
	"testing"

	"openmeta/internal/core"
	"openmeta/internal/machine"
	"openmeta/internal/pbio"
	"openmeta/internal/testutil"
	"openmeta/internal/xmlschema"
)

// TEMPORARY: generated schemas, registered and rendered back to documents,
// through the old and the new parser.
func TestDifferentialGeneratedSchemas(t *testing.T) {
	rendered := 0
	for seed := int64(1); seed <= 300; seed++ {
		for _, name := range machine.ArchNames() {
			arch, err := machine.ArchByName(name)
			if err != nil {
				t.Fatal(err)
			}
			ctx, err := pbio.NewContext(arch)
			if err != nil {
				t.Fatal(err)
			}
			gs := testutil.NewGenSchema(seed)
			if _, err := gs.Register(ctx); err != nil {
				t.Fatal(err)
			}
			doc, err := core.SchemaDocumentForFormats("urn:gen", ctx.Formats()...)
			if err != nil {
				continue // a field no xsd primitive describes on this architecture
			}
			rendered++
			if !xmlschema.DiffOldParser(t, doc) {
				t.Fatalf("seed %d on %s: generated document rejected:\n%s", seed, arch.Name, doc)
			}
		}
	}
	t.Logf("%d generated documents", rendered)
}
