package snapshot

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"io"
	"math"
	"time"

	"securepki/internal/extsort"
	"securepki/internal/netsim"
	"securepki/internal/scanstore"
	"securepki/internal/x509lite"
)

// StreamWriter is the snapshot encoder: every v2 and v3 file is written
// through it, from a resident corpus (StreamCorpus) or from a streamed
// build (core.StreamSnapshot). Certs and observations arrive incrementally
// — Intern as certificates are first seen (in global scan-major order),
// AddObs per sighting — and everything bulky transits disk: cert shards
// compress straight into a checksummed payload spill as every
// CertsPerShard-th certificate arrives, per-scan observation columns
// overflow to spill files past a small threshold, and the v3 IP/AS postings
// accumulate in the index builder's external-merge sorters. What stays
// resident is per-certificate constant-size state (fingerprint, SPKI, DER
// location — needed by the v3 index anyway) and the fingerprint dedup map.
//
// The output is a pure function of the event stream and the sizing knobs:
// shard boundaries come from CertsPerShard/ScansPerShard, gzip sees one raw
// byte stream per shard (chunked writes change no deflate output), and every
// v3 section is emitted in a total order over the data. The memory budget,
// spill directory and worker count never change a byte; the digest goldens
// in core pin this.
type StreamWriter struct {
	opt Options
	cfg StreamWriterConfig

	ix   *v3Index // per-cert and per-scan state plus the v3 sorters
	byFP map[x509lite.Fingerprint]scanstore.CertID

	pendDER  [][]byte // current cert shard's DERs
	payload  *extsort.SpillFile
	shardTab []streamShardEntry

	cols []*scanCols // per-scan observation columns

	derSpill *extsort.SpillFile

	err error
}

// StreamWriterConfig sizes the writer's memory envelope.
type StreamWriterConfig struct {
	// SpillDir hosts the payload, column and sorter spills ("" = OS temp).
	SpillDir string
	// MemBudget bounds the IP/AS sorter buffers (<= 0 means
	// extsort.DefaultMemBudget, split between them).
	MemBudget int64
	// V3 selects the indexed format; Finish then writes MagicV3 plus the
	// five index sections. Off, Finish writes plain v2.
	V3 bool
	// KeepDERs retains a spill of every interned DER so EachCert can replay
	// the certificate table after Finish (the lint pass needs this).
	KeepDERs bool
}

// streamShardEntry is one shard-table row accumulated as payloads flush.
type streamShardEntry struct {
	first, count int
	rawLen, cLen int64
	sum          [32]byte
}

// scanCols is one scan's two delta-encoded observation columns.
type scanCols struct {
	prevC   int64
	prevIP  int64
	certCol *spillColumn
	ipCol   *spillColumn
}

// NewStreamWriter prepares an empty streaming writer.
func NewStreamWriter(opt Options, cfg StreamWriterConfig) (*StreamWriter, error) {
	opt = opt.withDefaults()
	sw := &StreamWriter{opt: opt, cfg: cfg, byFP: make(map[x509lite.Fingerprint]scanstore.CertID)}
	var err error
	if sw.ix, err = newV3Index(opt.ASOf, cfg.V3, cfg.MemBudget, cfg.SpillDir); err != nil {
		return nil, err
	}
	if sw.payload, err = extsort.NewSpillFile(cfg.SpillDir, "snapshot-payload-*.spill"); err != nil {
		sw.Close()
		return nil, err
	}
	if cfg.KeepDERs {
		if sw.derSpill, err = extsort.NewSpillFile(cfg.SpillDir, "snapshot-ders-*.spill"); err != nil {
			sw.Close()
			return nil, err
		}
	}
	return sw, nil
}

// NumCerts returns how many distinct certificates have been interned.
func (sw *StreamWriter) NumCerts() int { return len(sw.ix.fps) }

// Intern deduplicates one certificate by fingerprint, appending it to the
// table (and the pending cert shard) when new. The DER is copied; callers
// may reuse the buffer. Returns the ID and whether the cert was new.
func (sw *StreamWriter) Intern(der []byte, fp, spki x509lite.Fingerprint) (scanstore.CertID, bool, error) {
	if sw.err != nil {
		return 0, false, sw.err
	}
	if id, ok := sw.byFP[fp]; ok {
		return id, false, nil
	}
	if len(der) == 0 || len(der) > MaxCertDER {
		return 0, false, sw.fail(fmt.Errorf("snapshot: cert %d DER length %d outside (0, %d]", sw.NumCerts(), len(der), MaxCertDER))
	}
	if sw.NumCerts() >= maxCerts {
		return 0, false, sw.fail(fmt.Errorf("snapshot: %d certificates exceed format cap", sw.NumCerts()+1))
	}
	id := scanstore.CertID(sw.NumCerts())
	sw.byFP[fp] = id
	sw.ix.addCert(fp, spki)
	sw.pendDER = append(sw.pendDER, append([]byte(nil), der...))
	if sw.derSpill != nil {
		var head [68]byte
		copy(head[:32], fp[:])
		copy(head[32:64], spki[:])
		binary.LittleEndian.PutUint32(head[64:], uint32(len(der)))
		if _, err := sw.derSpill.Write(head[:]); err != nil {
			return 0, false, sw.fail(err)
		}
		if _, err := sw.derSpill.Write(der); err != nil {
			return 0, false, sw.fail(err)
		}
	}
	if len(sw.pendDER) >= sw.opt.CertsPerShard {
		if err := sw.flushCertShard(); err != nil {
			return 0, false, sw.fail(err)
		}
	}
	return id, true, nil
}

// BeginScan opens the next scan (chronological, like Corpus.AddScan); all
// following AddObs calls belong to it.
func (sw *StreamWriter) BeginScan(op scanstore.Operator, at time.Time) error {
	if sw.err != nil {
		return sw.err
	}
	scans := sw.ix.scans
	if len(scans) >= maxScans {
		return sw.fail(fmt.Errorf("snapshot: %d scans exceed format cap", len(scans)+1))
	}
	if int64(op) < 0 || int64(op) > 1<<20 {
		return sw.fail(fmt.Errorf("snapshot: scan %d operator %d outside format range", len(scans), op))
	}
	if n := len(scans); n > 0 && at.Before(scans[n-1].at) {
		return sw.fail(fmt.Errorf("snapshot: scan at %v begun after %v", at, scans[n-1].at))
	}
	sw.ix.beginScan(op, at)
	sw.cols = append(sw.cols, &scanCols{
		certCol: newSpillColumn(sw.cfg.SpillDir),
		ipCol:   newSpillColumn(sw.cfg.SpillDir),
	})
	return nil
}

// AddObs records one sighting of an interned certificate in the current
// scan. Sightings must arrive in the corpus's observation order (global
// host order): the observation columns keep that order.
func (sw *StreamWriter) AddObs(id scanstore.CertID, ip netsim.IP) error {
	if sw.err != nil {
		return sw.err
	}
	if len(sw.cols) == 0 {
		return sw.fail(fmt.Errorf("snapshot: AddObs before BeginScan"))
	}
	if int(id) < 0 || int(id) >= sw.NumCerts() {
		return sw.fail(fmt.Errorf("snapshot: observation of unknown cert %d", id))
	}
	scan := len(sw.cols) - 1
	if count := sw.ix.scans[scan].count; count >= math.MaxUint32 {
		return sw.fail(fmt.Errorf("snapshot: scan %d has %d observations, cap %d", scan, count+1, uint32(math.MaxUint32)))
	}
	s := sw.cols[scan]
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutVarint(tmp[:], int64(id)-s.prevC)
	if _, err := s.certCol.Write(tmp[:n]); err != nil {
		return sw.fail(err)
	}
	s.prevC = int64(id)
	n = binary.PutVarint(tmp[:], int64(ip)-s.prevIP)
	if _, err := s.ipCol.Write(tmp[:n]); err != nil {
		return sw.fail(err)
	}
	s.prevIP = int64(ip)
	if err := sw.ix.addObs(id, ip); err != nil {
		return sw.fail(err)
	}
	return nil
}

// MergeFanIn reports the widest k-way merge Finish will perform across the
// index sorters (0 when the writer has no v3 sorters).
func (sw *StreamWriter) MergeFanIn() int { return sw.ix.mergeFanIn() }

func (sw *StreamWriter) fail(err error) error {
	if sw.err == nil {
		sw.err = err
	}
	return sw.err
}

// flushCertShard compresses the pending certificate shard straight into the
// payload spill, recording its table entry and the per-cert DER locations
// the v3 fingerprint index needs.
func (sw *StreamWriter) flushCertShard() error {
	if len(sw.pendDER) == 0 {
		return nil
	}
	first := sw.NumCerts() - len(sw.pendDER)
	sw.ix.placeShard(sw.pendDER)

	fw := newFlushWriter(sw.payload)
	zw, err := gzip.NewWriterLevel(fw, shardCompression)
	if err != nil {
		return err
	}
	raw := int64(0)
	write := func(p []byte) error {
		if err != nil {
			return err
		}
		_, err = zw.Write(p)
		raw += int64(len(p))
		return err
	}
	var tmp [binary.MaxVarintLen64]byte
	for _, der := range sw.pendDER {
		if err := write(tmp[:binary.PutUvarint(tmp[:], uint64(len(der)))]); err != nil {
			return err
		}
	}
	for _, der := range sw.pendDER {
		if err := write(der); err != nil {
			return err
		}
	}
	for _, fp := range sw.ix.fps[first:] {
		if err := write(fp[:]); err != nil {
			return err
		}
	}
	if err := zw.Close(); err != nil {
		return err
	}
	if fw.err != nil {
		return fw.err
	}
	sw.shardTab = append(sw.shardTab, streamShardEntry{
		first: first, count: len(sw.pendDER),
		rawLen: raw, cLen: fw.n, sum: fw.sum(),
	})
	sw.pendDER = sw.pendDER[:0]
	return nil
}

// flushScanShards assembles the scan shards (groups of ScansPerShard) from
// the per-scan metadata and columns, compressing each into the payload spill
// after the cert shards.
func (sw *StreamWriter) flushScanShards() error {
	var tmp [binary.MaxVarintLen64]byte
	scans := sw.ix.scans
	for lo := 0; lo < len(scans); lo += sw.opt.ScansPerShard {
		hi := min(lo+sw.opt.ScansPerShard, len(scans))
		fw := newFlushWriter(sw.payload)
		zw, err := gzip.NewWriterLevel(fw, shardCompression)
		if err != nil {
			return err
		}
		raw := int64(0)
		write := func(p []byte) error {
			if err != nil {
				return err
			}
			_, err = zw.Write(p)
			raw += int64(len(p))
			return err
		}
		prevSec := int64(0)
		for i, s := range scans[lo:hi] {
			if err := write(tmp[:binary.PutUvarint(tmp[:], uint64(s.op))]); err != nil {
				return err
			}
			sec := s.at.Unix()
			delta := sec
			if i > 0 {
				delta = sec - prevSec
			}
			prevSec = sec
			if err := write(tmp[:binary.PutVarint(tmp[:], delta)]); err != nil {
				return err
			}
			if err := write(tmp[:binary.PutUvarint(tmp[:], uint64(s.at.Nanosecond()))]); err != nil {
				return err
			}
			if err := write(tmp[:binary.PutUvarint(tmp[:], s.count)]); err != nil {
				return err
			}
		}
		cw := &countWriter{w: zw}
		for _, s := range sw.cols[lo:hi] {
			if err := s.certCol.drain(cw); err != nil {
				return err
			}
		}
		for _, s := range sw.cols[lo:hi] {
			if err := s.ipCol.drain(cw); err != nil {
				return err
			}
		}
		raw += cw.n
		if err != nil {
			return err
		}
		if err := zw.Close(); err != nil {
			return err
		}
		if fw.err != nil {
			return fw.err
		}
		sw.shardTab = append(sw.shardTab, streamShardEntry{
			first: lo, count: hi - lo,
			rawLen: raw, cLen: fw.n, sum: fw.sum(),
		})
	}
	return nil
}

// Finish flushes everything and writes the complete snapshot to w. The
// writer remains readable (EachCert) but accepts no further data.
func (sw *StreamWriter) Finish(w io.Writer) error {
	if sw.err != nil {
		return sw.err
	}
	if err := sw.flushCertShard(); err != nil {
		return sw.fail(err)
	}
	nCertShards := len(sw.shardTab)
	if err := sw.flushScanShards(); err != nil {
		return sw.fail(err)
	}
	if len(sw.shardTab) > maxShards {
		return sw.fail(fmt.Errorf("snapshot: %d shards exceed format cap %d; raise CertsPerShard/ScansPerShard",
			len(sw.shardTab), maxShards))
	}
	var obsCount uint64
	for _, s := range sw.ix.scans {
		obsCount += s.count
	}

	var sections [V3SectionCount]v3SectionData
	var ipPost, asPost *spillColumn
	if sw.cfg.V3 {
		ipPost = newSpillColumn(sw.cfg.SpillDir)
		asPost = newSpillColumn(sw.cfg.SpillDir)
		defer ipPost.close()
		defer asPost.close()
		var err error
		if sections, err = sw.ix.build(ipPost, asPost); err != nil {
			return sw.fail(err)
		}
	}

	var head bytes.Buffer
	if sw.cfg.V3 {
		head.WriteString(MagicV3)
	} else {
		head.WriteString(Magic)
	}
	putU64(&head, uint64(sw.NumCerts()))
	putU64(&head, uint64(len(sw.ix.scans)))
	putU64(&head, obsCount)
	putU32(&head, uint32(nCertShards))
	putU32(&head, uint32(len(sw.shardTab)-nCertShards))
	if sw.cfg.V3 {
		putU32(&head, V3SectionCount)
		putU32(&head, 0) // reserved
	}
	for _, sh := range sw.shardTab {
		putU64(&head, uint64(sh.first))
		putU64(&head, uint64(sh.count))
		putU64(&head, uint64(sh.rawLen))
		putU64(&head, uint64(sh.cLen))
		head.Write(sh.sum[:])
	}
	if sw.cfg.V3 {
		for i, s := range sections {
			putU32(&head, s.kind)
			putU32(&head, v3EntrySize(s.kind))
			putU64(&head, s.keyCount)
			postLen := int64(len(s.post))
			var sum [32]byte
			switch i {
			case 2, 3: // IP and AS postings live in spill columns
				sp := ipPost
				if i == 3 {
					sp = asPost
				}
				postLen = sp.len()
				h := sha256.New()
				h.Write(s.keys)
				if err := sp.drain(h); err != nil {
					return sw.fail(err)
				}
				h.Sum(sum[:0])
			default:
				sum = sha256SectionSum(s.keys, s.post)
			}
			putU64(&head, uint64(postLen))
			putU64(&head, 0) // reserved
			head.Write(sum[:])
		}
		headSum := sha256SectionSum(head.Bytes(), nil)
		head.Write(headSum[:])
	} else {
		headSum := sha256.Sum256(head.Bytes())
		head.Write(headSum[:])
	}
	if _, err := w.Write(head.Bytes()); err != nil {
		return sw.fail(fmt.Errorf("snapshot: write header: %w", err))
	}

	// Payload shards, re-verified against the write-time digest.
	if err := sw.payload.VerifyCopy(w); err != nil {
		return sw.fail(err)
	}
	if !sw.cfg.V3 {
		sw.emitObs(obsCount)
		return nil
	}
	off := int64(head.Len()) + sw.payload.Len()
	var zeros [8]byte
	writePad := func() error {
		if n := pad8(off); n > 0 {
			if _, err := w.Write(zeros[:n]); err != nil {
				return fmt.Errorf("snapshot: write padding: %w", err)
			}
			off += n
		}
		return nil
	}
	if err := writePad(); err != nil {
		return sw.fail(err)
	}
	var indexBytes int64
	for i, s := range sections {
		if _, err := w.Write(s.keys); err != nil {
			return sw.fail(fmt.Errorf("snapshot: write index section %d keys: %w", i, err))
		}
		off += int64(len(s.keys))
		indexBytes += int64(len(s.keys))
		switch i {
		case 2, 3:
			sp := ipPost
			if i == 3 {
				sp = asPost
			}
			cw := &countWriter{w: w}
			if err := sp.drain(cw); err != nil {
				return sw.fail(err)
			}
			off += cw.n
			indexBytes += cw.n
		default:
			if _, err := w.Write(s.post); err != nil {
				return sw.fail(fmt.Errorf("snapshot: write index section %d postings: %w", i, err))
			}
			off += int64(len(s.post))
			indexBytes += int64(len(s.post))
		}
		if err := writePad(); err != nil {
			return sw.fail(err)
		}
	}
	sw.emitObs(obsCount)
	sw.opt.Obs.Counter("snapshot.encode.index_bytes").Add(indexBytes)
	return nil
}

// emitObs records the snapshot.encode.* counters.
func (sw *StreamWriter) emitObs(obsCount uint64) {
	reg := sw.opt.Obs
	reg.Counter("snapshot.encode.shards").Add(int64(len(sw.shardTab)))
	reg.Counter("snapshot.encode.certs").Add(int64(sw.NumCerts()))
	reg.Counter("snapshot.encode.scans").Add(int64(len(sw.ix.scans)))
	reg.Counter("snapshot.encode.observations").Add(int64(obsCount))
	var raw, comp int64
	for _, sh := range sw.shardTab {
		raw += sh.rawLen
		comp += sh.cLen
	}
	reg.Counter("snapshot.encode.raw_bytes").Add(raw)
	reg.Counter("snapshot.encode.comp_bytes").Add(comp)
}

// EachCert replays every interned certificate's DER in ID order (requires
// KeepDERs). The DER slice is only valid during the callback.
func (sw *StreamWriter) EachCert(fn func(id scanstore.CertID, fp, spki x509lite.Fingerprint, der []byte) error) error {
	if sw.derSpill == nil {
		return fmt.Errorf("snapshot: EachCert without KeepDERs")
	}
	rd, err := sw.derSpill.Reader()
	if err != nil {
		return err
	}
	var head [68]byte
	var der []byte
	for id := 0; id < sw.NumCerts(); id++ {
		if _, err := io.ReadFull(rd, head[:]); err != nil {
			return fmt.Errorf("snapshot: DER spill truncated: %w", err)
		}
		var fp, spki x509lite.Fingerprint
		copy(fp[:], head[:32])
		copy(spki[:], head[32:64])
		dlen := binary.LittleEndian.Uint32(head[64:])
		if dlen == 0 || dlen > MaxCertDER {
			return fmt.Errorf("snapshot: DER spill corrupt length %d", dlen)
		}
		if cap(der) < int(dlen) {
			der = make([]byte, dlen)
		}
		der = der[:dlen]
		if _, err := io.ReadFull(rd, der); err != nil {
			return fmt.Errorf("snapshot: DER spill truncated: %w", err)
		}
		if err := fn(scanstore.CertID(id), fp, spki, der); err != nil {
			return err
		}
	}
	return nil
}

// SPKI returns the public-key fingerprint of an interned certificate.
func (sw *StreamWriter) SPKI(id scanstore.CertID) x509lite.Fingerprint { return sw.ix.spkis[id] }

// Close releases every spill file and sorter. Safe to call more than once.
func (sw *StreamWriter) Close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if sw.payload != nil {
		keep(sw.payload.Remove())
		sw.payload = nil
	}
	if sw.derSpill != nil {
		keep(sw.derSpill.Remove())
		sw.derSpill = nil
	}
	if sw.ix != nil {
		keep(sw.ix.close())
	}
	for _, s := range sw.cols {
		s.certCol.close()
		s.ipCol.close()
	}
	return first
}

// flushWriter tees shard bytes into the payload spill while hashing and
// counting them for the shard-table entry.
type flushWriter struct {
	w   io.Writer
	h   hash.Hash
	n   int64
	err error
}

func newFlushWriter(w io.Writer) *flushWriter {
	return &flushWriter{w: w, h: sha256.New()}
}

func (f *flushWriter) Write(p []byte) (int, error) {
	if f.err != nil {
		return 0, f.err
	}
	n, err := f.w.Write(p)
	f.h.Write(p[:n])
	f.n += int64(n)
	f.err = err
	return n, err
}

func (f *flushWriter) sum() [32]byte {
	var s [32]byte
	f.h.Sum(s[:0])
	return s
}

// countWriter counts bytes through to w.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// spillColumn buffers an append-only byte column in memory up to a small
// threshold, then overflows to a checksummed spill file. drain replays the
// column in order (spilled prefix, then the in-memory tail) and may be
// called more than once.
type spillColumn struct {
	dir   string
	buf   []byte
	spill *extsort.SpillFile
	err   error
}

// colSpillThreshold is the per-column in-memory cap before overflow. It is a
// variable only so tests can shrink it to force the spill path.
var colSpillThreshold = 256 << 10

func newSpillColumn(dir string) *spillColumn {
	return &spillColumn{dir: dir}
}

func (c *spillColumn) Write(p []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	c.buf = append(c.buf, p...)
	if len(c.buf) >= colSpillThreshold {
		if c.spill == nil {
			c.spill, c.err = extsort.NewSpillFile(c.dir, "snapshot-col-*.spill")
			if c.err != nil {
				return 0, c.err
			}
		}
		if _, err := c.spill.Write(c.buf); err != nil {
			c.err = err
			return 0, err
		}
		c.buf = c.buf[:0]
	}
	return len(p), nil
}

func (c *spillColumn) len() int64 {
	n := int64(len(c.buf))
	if c.spill != nil {
		n += c.spill.Len()
	}
	return n
}

func (c *spillColumn) drain(w io.Writer) error {
	if c.err != nil {
		return c.err
	}
	if c.spill != nil {
		if err := c.spill.VerifyCopy(w); err != nil {
			return err
		}
	}
	if len(c.buf) > 0 {
		if _, err := w.Write(c.buf); err != nil {
			return err
		}
	}
	return nil
}

func (c *spillColumn) close() {
	if c == nil {
		return
	}
	if c.spill != nil {
		c.spill.Remove()
		c.spill = nil
	}
	c.buf = nil
}

// StreamCorpus writes a resident corpus as a v2 snapshot, or v3 when cfg.V3
// is set: certificates interned in corpus ID order, then every scan's
// observations in order, through a StreamWriter whose bulky state stays on
// disk under cfg.MemBudget. Validation statuses are not persisted (run
// Validate after loading). Output bytes depend only on the corpus and the
// shard sizing in opt.
func StreamCorpus(w io.Writer, c *scanstore.Corpus, opt Options, cfg StreamWriterConfig) error {
	sw, err := NewStreamWriter(opt, cfg)
	if err != nil {
		return err
	}
	defer sw.Close()
	for i := 0; i < c.NumCerts(); i++ {
		cert := c.Cert(scanstore.CertID(i)).Cert
		if _, _, err := sw.Intern(cert.Raw, cert.Fingerprint(), cert.PublicKeyFingerprint()); err != nil {
			return err
		}
	}
	for s := 0; s < c.NumScans(); s++ {
		scan := c.Scan(scanstore.ScanID(s))
		if err := sw.BeginScan(scan.Operator, scan.Time); err != nil {
			return err
		}
		for _, o := range scan.Obs {
			if err := sw.AddObs(o.Cert, o.IP); err != nil {
				return err
			}
		}
	}
	return sw.Finish(w)
}

func putU64(b *bytes.Buffer, v uint64) {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], v)
	b.Write(tmp[:])
}

func putU32(b *bytes.Buffer, v uint32) {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], v)
	b.Write(tmp[:])
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}
