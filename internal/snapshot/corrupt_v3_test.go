package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
)

// validV3 returns encoded v3 bytes for a small multi-shard corpus with all
// five index sections populated.
func validV3(tb testing.TB) []byte {
	c := testCorpus(tb, 20, 4, 30)
	return encodeV3(tb, c, Options{CertsPerShard: 8, ScansPerShard: 2, ASOf: testASOf})
}

// patchV3Header applies modify to the fixed header, shard table and index
// table, then recomputes the header checksum so corruption tests reach the
// field checks behind it.
func patchV3Header(tb testing.TB, snap []byte, modify func(fixed, table, itable []byte)) []byte {
	tb.Helper()
	out := append([]byte(nil), snap...)
	fixed := out[:headerFixedV3]
	certShards := binary.LittleEndian.Uint32(fixed[32:])
	scanShards := binary.LittleEndian.Uint32(fixed[36:])
	tableLen := int(certShards+scanShards) * tableEntry
	table := out[headerFixedV3 : headerFixedV3+tableLen]
	itable := out[headerFixedV3+tableLen : headerFixedV3+tableLen+V3SectionCount*idxTableEntry]
	modify(fixed, table, itable)
	sum := sha256.New()
	sum.Write(fixed)
	sum.Write(table)
	sum.Write(itable)
	copy(out[headerFixedV3+tableLen+len(itable):], sum.Sum(nil))
	return out
}

// patchV3Section mutates one index section's bytes in place, then recomputes
// the section checksum and the header checksum so only the structural (or
// rebuild-compare) validation can reject the result — the shape a random
// bit-flip can never produce.
func patchV3Section(tb testing.TB, snap []byte, sec int, modify func(keys, post []byte)) []byte {
	tb.Helper()
	lay, err := ReadV3Layout(bytes.NewReader(snap), int64(len(snap)))
	if err != nil {
		tb.Fatal(err)
	}
	out := append([]byte(nil), snap...)
	s := lay.Sections[sec]
	keys := out[s.KeysOff : s.KeysOff+s.KeysLen()]
	post := out[s.PostOff : s.PostOff+int64(s.PostLen)]
	modify(keys, post)
	sum := sha256SectionSum(keys, post)
	nShards := int(lay.CertShards + lay.ScanShards)
	itableOff := headerFixedV3 + nShards*tableEntry
	copy(out[itableOff+sec*idxTableEntry+32:], sum[:])
	head := sha256.New()
	head.Write(out[:itableOff+V3SectionCount*idxTableEntry])
	copy(out[itableOff+V3SectionCount*idxTableEntry:], head.Sum(nil))
	return out
}

// Every corrupted v3 input must produce an explicit error — no panic, no
// out-of-bounds section read, never a silently wrong corpus. The same bytes
// are pushed through both the streaming reader (Read) and the random-access
// layout parser (ReadV3Layout + ValidateSection) that internal/querystore
// uses, since a hostile file reaches both.
func TestReadCorruptV3(t *testing.T) {
	snap := validV3(t)
	lay, err := ReadV3Layout(bytes.NewReader(snap), int64(len(snap)))
	if err != nil {
		t.Fatal(err)
	}
	nShards := int(lay.CertShards + lay.ScanShards)
	tableLen := nShards * tableEntry

	cases := []struct {
		name    string
		input   []byte
		wantSub string // substring the error must mention, "" for any error
	}{
		{"truncated fixed header", snap[:30], "truncated header"},
		{"truncated index table", snap[:headerFixedV3+tableLen+10], "truncated index table"},
		{"truncated header checksum", snap[:headerFixedV3+tableLen+V3SectionCount*idxTableEntry+5], "truncated header checksum"},
		{"truncated last section", snap[:len(snap)-10], "truncated"},
		{"truncated at payloads", snap[:int(lay.Shards[0].Off)+8], "truncated"},
		{"trailing garbage", append(append([]byte(nil), snap...), 0xff), "trailing bytes"},
		{"flipped header bit", flipByte(snap, headerFixedV3+tableLen+4), "header checksum mismatch"},
		{"flipped section byte", flipByte(snap, int(lay.Sections[0].KeysOff)+2), "checksum mismatch"},
		{"non-zero padding", nonZeroPad(t, snap, lay), "padding"},
		{
			"wrong section count",
			patchV3Header(t, snap, func(fixed, table, itable []byte) {
				binary.LittleEndian.PutUint32(fixed[40:], 4)
			}),
			"index sections",
		},
		{
			"reserved header field",
			patchV3Header(t, snap, func(fixed, table, itable []byte) {
				binary.LittleEndian.PutUint32(fixed[44:], 7)
			}),
			"reserved",
		},
		{
			"fingerprint key count mismatch",
			patchV3Header(t, snap, func(fixed, table, itable []byte) {
				binary.LittleEndian.PutUint64(itable[8:], lay.CertCount+1)
			}),
			"fingerprint index",
		},
		{
			"wrong section kind",
			patchV3Header(t, snap, func(fixed, table, itable []byte) {
				binary.LittleEndian.PutUint32(itable[0:], uint32(V3KindSPKI))
			}),
			"kind",
		},
		{
			"absurd posting length",
			patchV3Header(t, snap, func(fixed, table, itable []byte) {
				binary.LittleEndian.PutUint64(itable[idxTableEntry+16:], maxIndexBytes+8)
			}),
			"cap",
		},
		{
			"unsorted fingerprint keys",
			patchV3Section(t, snap, 0, func(keys, post []byte) {
				tmp := make([]byte, V3FPEntry)
				copy(tmp, keys[:V3FPEntry])
				copy(keys[:V3FPEntry], keys[V3FPEntry:2*V3FPEntry])
				copy(keys[V3FPEntry:2*V3FPEntry], tmp)
			}),
			"unsorted",
		},
		{
			"DER offset outside shard",
			patchV3Section(t, snap, 0, func(keys, post []byte) {
				binary.LittleEndian.PutUint32(keys[36:], 1<<29) // first key's derOff
			}),
			"outside shard",
		},
		{
			"fingerprint entry reserved field",
			patchV3Section(t, snap, 0, func(keys, post []byte) {
				keys[44] = 1
			}),
			"reserved",
		},
		{
			"overlapping SPKI posting groups",
			patchV3Section(t, snap, 1, func(keys, post []byte) {
				// Second key re-reads the first group: offsets must tile.
				binary.LittleEndian.PutUint32(keys[V3SPKIEntry+32:], 0)
			}),
			"postings start at",
		},
		{
			"IP posting ref out of range",
			patchV3Section(t, snap, 2, func(keys, post []byte) {
				binary.LittleEndian.PutUint32(post[4:], uint32(lay.CertCount)+5)
			}),
			"references cert",
		},
		{
			"scan metadata absurd nanoseconds",
			patchV3Section(t, snap, 4, func(keys, post []byte) {
				binary.LittleEndian.PutUint32(keys[4:], 2_000_000_000)
			}),
			"nanoseconds",
		},
		{
			"scan metadata observation total",
			patchV3Section(t, snap, 4, func(keys, post []byte) {
				n := binary.LittleEndian.Uint32(keys[16:])
				binary.LittleEndian.PutUint32(keys[16:], n+1)
			}),
			"observations",
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 4} {
				_, err := Read(bytes.NewReader(tc.input), Options{Workers: workers})
				if err == nil {
					t.Fatalf("corrupt input accepted (workers=%d)", workers)
				}
				if tc.wantSub != "" && !strings.Contains(err.Error(), tc.wantSub) {
					t.Fatalf("error %q does not mention %q", err, tc.wantSub)
				}
			}
			// The random-access path must reject the same bytes at open —
			// except padding corruption, which lives outside the sections
			// and is harmless to (because never read by) that path.
			if tc.name != "non-zero padding" {
				if err := validateV3Random(tc.input); err == nil {
					t.Fatal("corrupt input accepted by random-access validation")
				}
			}
		})
	}
}

// validateV3Random mimics internal/querystore's open path: parse the layout,
// slice each section, validate structurally.
func validateV3Random(snap []byte) error {
	lay, err := ReadV3Layout(bytes.NewReader(snap), int64(len(snap)))
	if err != nil {
		return err
	}
	for i, s := range lay.Sections {
		if s.KeysOff+s.KeysLen() > int64(len(snap)) || s.PostOff+int64(s.PostLen) > int64(len(snap)) {
			return fmt.Errorf("section %d extends past the file", i)
		}
		keys := snap[s.KeysOff : s.KeysOff+s.KeysLen()]
		post := snap[s.PostOff : s.PostOff+int64(s.PostLen)]
		if err := lay.ValidateSection(i, keys, post); err != nil {
			return err
		}
	}
	return nil
}

// A structurally valid file whose indexes lie about the payloads must be
// rejected by the streaming reader's rebuild-compare — the corruption class
// checksums cannot catch because the forger recomputed them.
func TestReadV3IndexDisagreesWithPayloads(t *testing.T) {
	snap := validV3(t)
	// Flip scan 0's operator in the scan-metadata section: structurally
	// valid (0 and 1 are both real operators), checksummed, but wrong.
	forged := patchV3Section(t, snap, 4, func(keys, post []byte) {
		op := binary.LittleEndian.Uint32(keys[0:])
		binary.LittleEndian.PutUint32(keys[0:], 1-op)
	})
	if err := validateV3Random(forged); err != nil {
		t.Fatalf("forged section should pass structural validation, got: %v", err)
	}
	_, err := Read(bytes.NewReader(forged), Options{})
	if err == nil {
		t.Fatal("index/payload disagreement accepted")
	}
	if !strings.Contains(err.Error(), "does not match the decoded corpus") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// The IP postings are compared as they stream out of the rebuild, not as a
// whole section: a forged sighting there must be caught the same way.
func TestReadV3IPPostingsDisagreeWithPayloads(t *testing.T) {
	snap := validV3(t)
	certs := binary.LittleEndian.Uint64(snap[8:])
	// Re-point the first single-sighting IP at another certificate:
	// structurally valid (a one-entry group is trivially sorted), but wrong.
	forged := patchV3Section(t, snap, 2, func(keys, post []byte) {
		for k := 0; k < len(keys)/V3IPEntry; k++ {
			e := keys[k*V3IPEntry:]
			if binary.LittleEndian.Uint32(e[8:]) != 1 {
				continue
			}
			p := post[binary.LittleEndian.Uint32(e[4:])*8+4:]
			binary.LittleEndian.PutUint32(p, uint32((uint64(binary.LittleEndian.Uint32(p))+1)%certs))
			return
		}
		t.Fatal("no single-sighting IP to forge")
	})
	if err := validateV3Random(forged); err != nil {
		t.Fatalf("forged section should pass structural validation, got: %v", err)
	}
	_, err := Read(bytes.NewReader(forged), Options{})
	if err == nil || !strings.Contains(err.Error(), "index section 2 does not match the decoded corpus") {
		t.Fatalf("forged IP posting: got %v", err)
	}
}

// nonZeroPad flips a padding byte between the shard payloads and the first
// index section (the corpus geometry guarantees at least one pad byte is not
// present in every build, so find one; skip-free fallback corrupts the gap
// after a section instead).
func nonZeroPad(tb testing.TB, snap []byte, lay *V3Layout) []byte {
	tb.Helper()
	last := lay.Shards[len(lay.Shards)-1]
	end := last.Off + int64(last.CompLen)
	if pad8(end) == 0 {
		// Fall back to the pad after the fingerprint section's keys+post.
		s := lay.Sections[0]
		end = s.PostOff + int64(s.PostLen)
		if pad8(end) == 0 {
			tb.Skip("no padding bytes in this geometry")
		}
	}
	out := append([]byte(nil), snap...)
	out[end] = 0xcc
	return out
}
