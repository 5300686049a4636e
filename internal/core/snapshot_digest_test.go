package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"testing"

	"securepki/internal/scanner"
	"securepki/internal/x509lite"
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

// SHA-256 of the SmallConfig Summary JSON and of its ground truth. Every
// Summary number reads the sighting index, and ground_truth_purity reads
// Truth, so a change to the sweep loop or the index build that moves a paper
// result fails here. Moving them needs a stated reason, not -update.
const (
	smallSummaryDigest = "b2a5d6cd8efbd649bc64e17d758eb5f6dae0562dc5a38279d55a4463a54cdb4e"
	smallTruthDigest   = "fdc4b2a4d1f8126414d29a7c93958f8252170df9bfc396efceae7a99264753dd"
)

// truthDigest hashes Truth as fingerprint-sorted (fp, sorted host indexes).
func truthDigest(tr *scanner.Truth) string {
	fps := make([]x509lite.Fingerprint, 0, len(tr.CertHosts))
	for fp := range tr.CertHosts {
		fps = append(fps, fp)
	}
	slices.SortFunc(fps, func(a, b x509lite.Fingerprint) int { return bytes.Compare(a[:], b[:]) })
	h := sha256.New()
	var buf [8]byte
	for _, fp := range fps {
		h.Write(fp[:])
		hosts := make([]int, 0, len(tr.CertHosts[fp]))
		for host := range tr.CertHosts[fp] {
			hosts = append(hosts, host)
		}
		slices.Sort(hosts)
		binary.BigEndian.PutUint64(buf[:], uint64(len(hosts)))
		h.Write(buf[:])
		for _, host := range hosts {
			binary.BigEndian.PutUint64(buf[:], uint64(host))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSmallSummaryDigests runs the SmallConfig pipeline end to end at two
// worker counts and checks the Summary JSON and the ground truth against the
// pinned digests.
func TestSmallSummaryDigests(t *testing.T) {
	for _, workers := range []int{1, 4} {
		cfg := SmallConfig()
		cfg.Workers, cfg.Scan.Workers = workers, workers
		p, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var js bytes.Buffer
		if err := Summarize(p).WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		if got := hexDigest(js.Bytes()); got != smallSummaryDigest {
			t.Errorf("workers=%d: Summary JSON digest %s, want %s", workers, got, smallSummaryDigest)
		}
		if got := truthDigest(p.Truth); got != smallTruthDigest {
			t.Errorf("workers=%d: Truth digest %s, want %s", workers, got, smallTruthDigest)
		}
	}
}
