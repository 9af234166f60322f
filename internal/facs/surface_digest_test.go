package facs

import (
	"bytes"
	"hash/fnv"
	"runtime"
	"testing"

	"facs/internal/fuzzy"
)

// TestCompiledSurfaceDigest pins the encoded bytes of the default
// compiled surfaces. Every node value comes from an exact engine
// evaluation, so the digest moves whenever a change to fuzzification,
// inference or defuzzification alters a single output bit. The pinned
// values were measured on linux/amd64; other GOARCHes may legally fuse
// multiply-adds and change low bits, so the test skips there.
func TestCompiledSurfaceDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("surface digests are pinned for amd64; %s may fuse multiply-adds and change low bits", runtime.GOARCH)
	}
	cc, err := DefaultCompiled()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		surf   *fuzzy.Surface
		nodes  int
		bytes  int
		digest uint64
	}{
		{"FLC1 Cv", cc.FLC1Surface(), 274625, 4295774, 0x3ed2f2ea6d92cf8a},
		{"FLC2 AR", cc.FLC2Surface(), 29315, 440320, 0x2f06899eab7be57d},
	} {
		var buf bytes.Buffer
		if err := fuzzy.EncodeSurface(&buf, tc.surf, 0); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		h := fnv.New64a()
		h.Write(buf.Bytes())
		if n := tc.surf.NumNodes(); n != tc.nodes || buf.Len() != tc.bytes || h.Sum64() != tc.digest {
			t.Errorf("%s: %d nodes, %d B, digest %#x; want %d nodes, %d B, %#x",
				tc.name, n, buf.Len(), h.Sum64(), tc.nodes, tc.bytes, tc.digest)
		}
	}
}
