package benchdiff

import (
	"bytes"
	"io"
	"testing"

	"dsssp/internal/harness"
)

// FuzzReadJSON: harness.ReadJSON, the decoder dsssp-diff runs on both of
// its inputs, never panics, and every report it accepts diffs against
// itself clean — OK, every scenario unchanged. The checked-in corpus
// (testdata/fuzz/FuzzReadJSON) holds one valid report and one input for
// each kind of inconsistency ReadJSON rejects.
func FuzzReadJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := harness.ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		d, err := Compare(rep, rep)
		if err != nil {
			t.Fatalf("self-compare refused: %v", err)
		}
		if !d.OK || d.Unchanged != len(rep.Results) || d.Changed != 0 {
			t.Fatalf("self-compare not clean: %+v", d)
		}
		if err := WriteMarkdown(io.Discard, d); err != nil {
			t.Fatal(err)
		}
	})
}
