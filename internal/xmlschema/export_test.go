package xmlschema

import "testing"

// DiffOldParser is the temporary differential check, for diff_ext_test.go.
func DiffOldParser(t *testing.T, src string) bool { return diffOne(t, src) }
