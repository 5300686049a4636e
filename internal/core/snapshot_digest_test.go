package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// SHA-256 of the SmallConfig v2 and v3 snapshots. They pin the on-disk bytes
// themselves, not just agreement between two writers: any change to shard
// layout, compression or index construction fails here first.
const (
	smallV2Digest = "d0740c98215d85c95208193c3d107941a305b47e7311c20a2aae24d795bd1b11"
	smallV3Digest = "ca3ffa7f520e271f164a11100d3ec78bc2c1a57de6fffb2600ddff0e4bd8df70"
)

func hexDigest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestSmallSnapshotDigests checks the resident pipeline's v2 and v3
// snapshots of SmallConfig against the pinned digests, and the streamed
// build at two chunk sizes (one mid-population, one swallowing the whole
// corpus) against the same digests.
func TestSmallSnapshotDigests(t *testing.T) {
	cfg := SmallConfig()
	p := &Pipeline{Config: cfg}
	if err := p.Generate(); err != nil {
		t.Fatal(err)
	}
	if err := p.Scan(); err != nil {
		t.Fatal(err)
	}
	var v2, v3 bytes.Buffer
	if err := p.WriteSnapshot(&v2); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteSnapshotV3(&v3); err != nil {
		t.Fatal(err)
	}
	if got := hexDigest(v2.Bytes()); got != smallV2Digest {
		t.Errorf("WriteSnapshot v2 digest %s, want %s", got, smallV2Digest)
	}
	if got := hexDigest(v3.Bytes()); got != smallV3Digest {
		t.Errorf("WriteSnapshotV3 digest %s, want %s", got, smallV3Digest)
	}

	for _, chunk := range []int{512, 1 << 20} {
		for _, v3 := range []bool{false, true} {
			want := smallV2Digest
			if v3 {
				want = smallV3Digest
			}
			scfg := SmallConfig()
			scfg.Stream.ChunkSize = chunk
			scfg.Stream.SpillDir = t.TempDir()
			var buf bytes.Buffer
			if _, err := StreamSnapshot(scfg, v3, &buf, nil); err != nil {
				t.Fatalf("chunk=%d v3=%v: %v", chunk, v3, err)
			}
			if got := hexDigest(buf.Bytes()); got != want {
				t.Errorf("StreamSnapshot chunk=%d v3=%v digest %s, want %s", chunk, v3, got, want)
			}
		}
	}
}
