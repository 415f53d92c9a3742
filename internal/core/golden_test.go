package core

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"

	"openmeta/internal/machine"
	"openmeta/internal/pbio"
	"openmeta/internal/testutil"
)

// schemaCorpusDigest is the SHA-256 of the schema text SchemaForFormats
// generates, or of its error, for schemagen seeds 1-400 on each architecture.
// About two in five are errors: a 64-bit integer has no xsd spelling on an
// architecture whose long is 32 bits, and legacy16 lacks more.
const schemaCorpusDigest = "3e3808456b1f1f41fec1ecdec32a30e28b32db8ae37588516f14ad01e2aed452"

// TestSchemaDocumentForFormatsGolden pins the generated schema text byte for
// byte over the schemagen corpus on every architecture: metaserver serves it
// and discovery hashes it, so the same formats must keep rendering the same.
func TestSchemaDocumentForFormatsGolden(t *testing.T) {
	h := sha256.New()
	failed := 0
	for seed := int64(1); seed <= 400; seed++ {
		schema := testutil.NewGenSchema(seed)
		for _, name := range machine.ArchNames() {
			arch, err := machine.ArchByName(name)
			if err != nil {
				t.Fatal(err)
			}
			ctx, err := pbio.NewContext(arch)
			if err != nil {
				t.Fatal(err)
			}
			root, err := schema.Register(ctx)
			if err != nil {
				t.Fatal(err)
			}
			doc, err := schemaDocument("urn:gen", root)
			if err != nil {
				doc, failed = "error: "+err.Error(), failed+1
			}
			_, _ = io.WriteString(h, doc) // a hash never fails to write
		}
	}
	t.Logf("%d of %d documents are errors", failed, 400*len(machine.ArchNames()))
	if got := hex.EncodeToString(h.Sum(nil)); got != schemaCorpusDigest {
		t.Errorf("schema corpus digest %s, want %s", got, schemaCorpusDigest)
	}
}
