package snapstore

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzReadManifest: the manifest decoder must never panic, and every
// manifest it accepts names distinct bare files inside its generation
// (none of them the manifest) and re-encodes to JSON that decodes to an
// equal manifest. The committed seeds (testdata/fuzz/FuzzReadManifest)
// are a SaveShards manifest, its meta file escaping the generation, a
// file named twice, and truncated JSON.
func FuzzReadManifest(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		man, err := decodeManifest(bytes.NewReader(raw))
		if err != nil {
			return
		}
		seen := make(map[string]bool)
		for _, c := range man.FileChecks() {
			if c.Name != filepath.Base(c.Name) || c.Name == "." || c.Name == ".." ||
				c.Name == ShardManifestName || seen[c.Name] {
				t.Fatalf("accepted manifest names %q: %+v", c.Name, man)
			}
			seen[c.Name] = true
		}
		again, err := json.Marshal(man)
		if err != nil {
			t.Fatalf("accepted manifest does not encode: %v", err)
		}
		back, err := decodeManifest(bytes.NewReader(again))
		if err != nil {
			t.Fatalf("re-encoded manifest is rejected: %v\n%s", err, again)
		}
		if !reflect.DeepEqual(back, man) {
			t.Fatalf("re-encoded manifest decodes differently:\n%+v\n%+v", man, back)
		}
	})
}
