package snapshot

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"

	"securepki/internal/scanstore"
)

// readV3 loads a complete corpus from a v3 stream. The payload decode is
// exactly v2's; the appended index sections are then held to a stricter
// standard than structural validity: the loader rebuilds the deterministic
// sections (fingerprint, SPKI, IP, scan metadata) from the decoded corpus
// and demands byte equality, so a v3 file whose indexes disagree with its
// own payloads is rejected outright. The AS section cannot be rebuilt (the
// writer's network view is not in the file), so it gets the full structural
// validation instead.
func readV3(r io.Reader, opt Options) (*scanstore.Corpus, error) {
	fixed := make([]byte, headerFixedV3)
	if _, err := io.ReadFull(r, fixed[:8]); err != nil {
		return nil, fmt.Errorf("snapshot: truncated header: %w", err)
	}
	if string(fixed[:8]) != MagicV3 {
		return nil, fmt.Errorf("snapshot: bad magic %q", fixed[:8])
	}
	if _, err := io.ReadFull(r, fixed[8:]); err != nil {
		return nil, fmt.Errorf("snapshot: truncated header: %w", err)
	}
	lay, nShards, err := parseV3Fixed(fixed)
	if err != nil {
		return nil, err
	}

	table := make([]byte, nShards*tableEntry)
	if _, err := io.ReadFull(r, table); err != nil {
		return nil, fmt.Errorf("snapshot: truncated shard table: %w", err)
	}
	itable := make([]byte, V3SectionCount*idxTableEntry)
	if _, err := io.ReadFull(r, itable); err != nil {
		return nil, fmt.Errorf("snapshot: truncated index table: %w", err)
	}
	var wantHeadSum [32]byte
	if _, err := io.ReadFull(r, wantHeadSum[:]); err != nil {
		return nil, fmt.Errorf("snapshot: truncated header checksum: %w", err)
	}
	h := sha256.New()
	h.Write(fixed)
	h.Write(table)
	h.Write(itable)
	if !bytes.Equal(h.Sum(nil), wantHeadSum[:]) {
		return nil, fmt.Errorf("snapshot: header checksum mismatch")
	}
	if err := parseV3Tables(lay, table, itable); err != nil {
		return nil, err
	}

	// Shard payloads, decoded exactly like v2.
	metas := make([]shardMeta, len(lay.Shards))
	sums := make([][32]byte, len(lay.Shards))
	comps := make([][]byte, len(lay.Shards))
	off := int64(headerFixedV3) + int64(len(table)) + int64(len(itable)) + 32
	for i, sh := range lay.Shards {
		metas[i] = shardMeta{first: sh.First, count: sh.Count, rawLen: sh.RawLen, compLen: sh.CompLen}
		sums[i] = sh.Sum
		comp, err := readPayload(r, sh.CompLen)
		if err != nil {
			return nil, fmt.Errorf("snapshot: shard %d payload: %w", i, err)
		}
		comps[i] = comp
		off += int64(sh.CompLen)
	}
	certParts, scanParts, err := decodeShards(metas, sums, comps, lay.CertShards, lay.CertCount, opt)
	if err != nil {
		return nil, err
	}

	// Index sections, with the alignment padding verified to be zeros.
	if err := readPadZeros(r, pad8(off)); err != nil {
		return nil, err
	}
	off += pad8(off)
	var indexBytes int64
	sections := make([][2][]byte, V3SectionCount)
	for i := range lay.Sections {
		sec := lay.Sections[i]
		keys, err := readPayload(r, uint64(sec.KeysLen()))
		if err != nil {
			return nil, fmt.Errorf("snapshot: index section %d keys: %w", i, err)
		}
		post, err := readPayload(r, sec.PostLen)
		if err != nil {
			return nil, fmt.Errorf("snapshot: index section %d postings: %w", i, err)
		}
		off += sec.KeysLen() + int64(sec.PostLen)
		if err := readPadZeros(r, pad8(off)); err != nil {
			return nil, err
		}
		off += pad8(off)
		sections[i] = [2][]byte{keys, post}
		indexBytes += int64(len(keys)) + int64(len(post))
	}
	var trail [1]byte
	if n, _ := r.Read(trail[:]); n != 0 {
		return nil, fmt.Errorf("snapshot: trailing bytes after last index section")
	}
	for i := range sections {
		if err := lay.ValidateSection(i, sections[i][0], sections[i][1]); err != nil {
			return nil, err
		}
	}

	c, err := assembleCorpus(certParts, scanParts, lay.ObsCount)
	if err != nil {
		return nil, err
	}

	if err := checkV3Rebuild(c, lay, sections); err != nil {
		return nil, err
	}

	opt.Obs.Counter("snapshot.decode.v3").Inc()
	opt.Obs.Counter("snapshot.decode.index_bytes").Add(indexBytes)
	opt.Obs.Counter("snapshot.decode.shards").Add(int64(nShards))
	opt.Obs.Counter("snapshot.decode.certs").Add(int64(lay.CertCount))
	opt.Obs.Counter("snapshot.decode.scans").Add(int64(lay.ScanCount))
	opt.Obs.Counter("snapshot.decode.observations").Add(int64(lay.ObsCount))
	return c, nil
}

// checkV3Rebuild feeds the decoded corpus, cut into the file's own cert
// shards, through the writer's index builder and demands byte equality with
// the fingerprint, SPKI, IP and scan-metadata sections the file carries. The
// AS section depends on the writer's network view, which the file does not
// record, so it is left to structural validation. The IP postings are
// compared as they stream out of the builder; nothing is compressed and no
// file is created unless the IP sorter outgrows its default budget.
func checkV3Rebuild(c *scanstore.Corpus, lay *V3Layout, sections [][2][]byte) error {
	ix, err := newV3Index(nil, true, 0, "")
	if err != nil {
		return fmt.Errorf("snapshot: rebuild indexes: %w", err)
	}
	defer ix.close()
	certs := c.Certs()
	for _, rec := range certs {
		ix.addCert(rec.Cert.Fingerprint(), rec.Cert.PublicKeyFingerprint())
	}
	var ders [][]byte
	for _, sh := range lay.Shards[:lay.CertShards] {
		ders = ders[:0]
		for _, rec := range certs[sh.First : sh.First+sh.Count] {
			ders = append(ders, rec.Cert.Raw)
		}
		ix.placeShard(ders)
	}
	for _, s := range c.Scans() {
		ix.beginScan(s.Operator, s.Time)
		for _, o := range s.Obs {
			if err := ix.addObs(o.Cert, o.IP); err != nil {
				return fmt.Errorf("snapshot: rebuild indexes: %w", err)
			}
		}
	}
	ipPost := &matchWriter{want: sections[2][1]}
	rebuilt, err := ix.build(ipPost, io.Discard)
	if err != nil {
		return fmt.Errorf("snapshot: rebuild indexes: %w", err)
	}
	for _, i := range []int{0, 1, 2, 4} { // fp, spki, ip, scanmeta; as is writer-dependent
		postOK := bytes.Equal(sections[i][1], rebuilt[i].post)
		if i == 2 {
			postOK = ipPost.matched()
		}
		if !bytes.Equal(sections[i][0], rebuilt[i].keys) || !postOK {
			return fmt.Errorf("snapshot: index section %d does not match the decoded corpus", i)
		}
	}
	return nil
}

// matchWriter compares a byte stream against want as it is written.
type matchWriter struct {
	want []byte
	n    int
	bad  bool
}

func (m *matchWriter) Write(p []byte) (int, error) {
	if !m.bad && (len(m.want)-m.n < len(p) || !bytes.Equal(m.want[m.n:m.n+len(p)], p)) {
		m.bad = true
	}
	m.n += len(p)
	return len(p), nil
}

// matched reports whether exactly want was written.
func (m *matchWriter) matched() bool { return !m.bad && m.n == len(m.want) }

// readPadZeros consumes n alignment bytes and rejects any non-zero filler —
// padding is not a place to smuggle bytes past the checksums.
func readPadZeros(r io.Reader, n int64) error {
	if n == 0 {
		return nil
	}
	var pad [8]byte
	if _, err := io.ReadFull(r, pad[:n]); err != nil {
		return fmt.Errorf("snapshot: truncated padding: %w", err)
	}
	for _, b := range pad[:n] {
		if b != 0 {
			return fmt.Errorf("snapshot: non-zero padding byte")
		}
	}
	return nil
}
