package snapshot

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"securepki/internal/extsort"
	"securepki/internal/netsim"
	"securepki/internal/scanstore"
	"securepki/internal/x509lite"
)

// v3SectionData is one index section ready to write: key array, posting
// array, and the table-entry fields derived from them. The IP and AS
// sections leave post nil; their postings stream to the writers handed to
// v3Index.build.
type v3SectionData struct {
	kind     uint32
	keyCount uint64
	keys     []byte
	post     []byte
}

// derLoc locates one certificate's DER inside its cert shard's uncompressed
// payload.
type derLoc struct{ shard, off, dlen uint32 }

// scanMeta is one scan's metadata-section entry.
type scanMeta struct {
	op    scanstore.Operator
	at    time.Time
	count uint64
}

// ipRec and asRec are the external-sort records behind the v3 IP and AS
// sections. Order includes the cert ID so duplicates land adjacent; the
// final ref order is recovered per group at build time.
type ipRec struct{ ip, scan, cert uint32 }
type asRec struct{ asn, cert uint32 }

// v3Index is the one builder of the five v3 index sections. It holds the
// constant-size per-certificate state (fingerprint, SPKI, DER location), the
// per-scan metadata, and external-merge sorters for the IP and AS postings.
// The StreamWriter feeds it as certificates and sightings arrive; readV3
// feeds it from a decoded corpus and the file's own cert-shard geometry, so
// the forged-index check rebuilds exactly the bytes a writer would emit.
type v3Index struct {
	fps   []x509lite.Fingerprint
	spkis []x509lite.Fingerprint
	locs  []derLoc // CertID order; filled one cert shard at a time
	scans []scanMeta

	asOf   func(netsim.IP, time.Time) (int, bool)
	ipSort *extsort.Sorter[ipRec] // nil when no sections will be built
	asSort *extsort.Sorter[asRec] // nil without an AS view
}

// newV3Index prepares an empty builder. With sorters off it only tracks the
// per-certificate and per-scan state (the v2 writer's needs). Each sorter
// buffers up to a quarter of budget (<= 0 means extsort.DefaultMemBudget)
// before spilling runs to dir.
func newV3Index(asOf func(netsim.IP, time.Time) (int, bool), sorters bool, budget int64, dir string) (*v3Index, error) {
	ix := &v3Index{asOf: asOf}
	if !sorters {
		return ix, nil
	}
	if budget <= 0 {
		budget = extsort.DefaultMemBudget
	}
	var err error
	ix.ipSort, err = extsort.NewSorter(extsort.Config[ipRec]{
		Size: 12,
		Encode: func(dst []byte, r ipRec) {
			binary.LittleEndian.PutUint32(dst, r.ip)
			binary.LittleEndian.PutUint32(dst[4:], r.scan)
			binary.LittleEndian.PutUint32(dst[8:], r.cert)
		},
		Decode: func(src []byte) ipRec {
			return ipRec{
				ip:   binary.LittleEndian.Uint32(src),
				scan: binary.LittleEndian.Uint32(src[4:]),
				cert: binary.LittleEndian.Uint32(src[8:]),
			}
		},
		Less: func(a, b ipRec) bool {
			if a.ip != b.ip {
				return a.ip < b.ip
			}
			if a.scan != b.scan {
				return a.scan < b.scan
			}
			return a.cert < b.cert
		},
		MemBudget: budget / 4,
		Dir:       dir,
	})
	if err != nil {
		return nil, err
	}
	if asOf != nil {
		ix.asSort, err = extsort.NewSorter(extsort.Config[asRec]{
			Size: 8,
			Encode: func(dst []byte, r asRec) {
				binary.LittleEndian.PutUint32(dst, r.asn)
				binary.LittleEndian.PutUint32(dst[4:], r.cert)
			},
			Decode: func(src []byte) asRec {
				return asRec{asn: binary.LittleEndian.Uint32(src), cert: binary.LittleEndian.Uint32(src[4:])}
			},
			Less: func(a, b asRec) bool {
				if a.asn != b.asn {
					return a.asn < b.asn
				}
				return a.cert < b.cert
			},
			MemBudget: budget / 4,
			Dir:       dir,
		})
		if err != nil {
			ix.close()
			return nil, err
		}
	}
	return ix, nil
}

// addCert appends the next certificate (CertID len(fps)).
func (ix *v3Index) addCert(fp, spki x509lite.Fingerprint) {
	ix.fps = append(ix.fps, fp)
	ix.spkis = append(ix.spkis, spki)
}

// placeShard records the DER locations of the next cert shard, whose
// certificates are ders in ID order. Offsets replay the shard layout: the
// uvarint length column precedes the concatenated DER bytes.
func (ix *v3Index) placeShard(ders [][]byte) {
	shard := uint32(0)
	if n := len(ix.locs); n > 0 {
		shard = ix.locs[n-1].shard + 1
	}
	off := 0
	for _, der := range ders {
		off += uvarintLen(uint64(len(der)))
	}
	for _, der := range ders {
		ix.locs = append(ix.locs, derLoc{shard: shard, off: uint32(off), dlen: uint32(len(der))})
		off += len(der)
	}
}

// beginScan opens the next scan; following addObs calls belong to it.
func (ix *v3Index) beginScan(op scanstore.Operator, at time.Time) {
	ix.scans = append(ix.scans, scanMeta{op: op, at: at})
}

// addObs records one sighting of cert id at ip in the current scan.
func (ix *v3Index) addObs(id scanstore.CertID, ip netsim.IP) error {
	s := &ix.scans[len(ix.scans)-1]
	s.count++
	if ix.ipSort == nil {
		return nil
	}
	scan := uint32(len(ix.scans) - 1)
	if err := ix.ipSort.Add(ipRec{ip: uint32(ip), scan: scan, cert: uint32(id)}); err != nil {
		return err
	}
	if ix.asSort == nil {
		return nil
	}
	asn, ok := ix.asOf(ip, s.at)
	if !ok {
		return nil
	}
	if asn < 0 || int64(asn) > math.MaxUint32 {
		return fmt.Errorf("snapshot: AS number %d outside uint32", asn)
	}
	return ix.asSort.Add(asRec{asn: uint32(asn), cert: uint32(id)})
}

// build constructs the five sections. The fingerprint, SPKI and scan-meta
// sections come back whole; the IP and AS posting arrays stream to ipPost
// and asPost as the sorters merge, group by group, each (tiny) group
// re-sorted by index position. Every order is total over the data, so the
// bytes are a pure function of the fed certificates and sightings. build
// consumes the sorters.
func (ix *v3Index) build(ipPost, asPost io.Writer) (out [V3SectionCount]v3SectionData, err error) {
	nCerts := len(ix.fps)
	order := make([]uint32, nCerts)
	for i := range order {
		order[i] = uint32(i)
	}
	// Fingerprints are unique, so this is a total order.
	slices.SortFunc(order, func(a, b uint32) int {
		return bytes.Compare(ix.fps[a][:], ix.fps[b][:])
	})
	// refOf maps CertID → position in the sorted fingerprint index; all
	// posting arrays reference certificates through it.
	refOf := make([]uint32, nCerts)
	fpKeys := make([]byte, nCerts*V3FPEntry)
	for pos, id := range order {
		refOf[id] = uint32(pos)
		l := ix.locs[id]
		e := fpKeys[pos*V3FPEntry:]
		copy(e[:32], ix.fps[id][:])
		binary.LittleEndian.PutUint32(e[32:], l.shard)
		binary.LittleEndian.PutUint32(e[36:], l.off)
		binary.LittleEndian.PutUint32(e[40:], l.dlen)
	}
	out[0] = v3SectionData{kind: V3KindFP, keyCount: uint64(nCerts), keys: fpKeys}

	// SPKI → cert set, ordered by (spki, ref): a total order, since refOf is
	// a bijection over certificates.
	spkiOrder := order // reuse: re-sorted by (spki, ref)
	slices.SortFunc(spkiOrder, func(a, b uint32) int {
		if c := bytes.Compare(ix.spkis[a][:], ix.spkis[b][:]); c != 0 {
			return c
		}
		return cmp.Compare(refOf[a], refOf[b])
	})
	var spkiKeys, spkiPost []byte
	for lo := 0; lo < len(spkiOrder); {
		hi := lo
		for hi < len(spkiOrder) && ix.spkis[spkiOrder[hi]] == ix.spkis[spkiOrder[lo]] {
			hi++
		}
		var e [V3SPKIEntry]byte
		copy(e[:32], ix.spkis[spkiOrder[lo]][:])
		binary.LittleEndian.PutUint32(e[32:], uint32(lo))
		binary.LittleEndian.PutUint32(e[36:], uint32(hi-lo))
		spkiKeys = append(spkiKeys, e[:]...)
		for _, id := range spkiOrder[lo:hi] {
			spkiPost = binary.LittleEndian.AppendUint32(spkiPost, refOf[id])
		}
		lo = hi
	}
	out[1] = v3SectionData{kind: V3KindSPKI, keyCount: uint64(len(spkiKeys) / V3SPKIEntry), keys: spkiKeys, post: spkiPost}

	// IP section: the sorter yields (ip, scan, cert) groups; per (ip, scan)
	// the distinct refs are emitted ascending, so postings run in
	// (scan, ref) order under each IP with repeat sightings dropped.
	var ipKeys []byte
	{
		elems := uint32(0)
		var curIP, curScan uint32
		var started bool
		var groupRefs []uint32 // refs of the current (ip, scan) subgroup
		var ipStart, ipCount uint32
		var prevCert uint32
		var havePrev bool
		var postTmp [8]byte

		flushSubgroup := func() error {
			slices.Sort(groupRefs)
			for _, ref := range groupRefs {
				binary.LittleEndian.PutUint32(postTmp[:4], curScan)
				binary.LittleEndian.PutUint32(postTmp[4:], ref)
				if _, err := ipPost.Write(postTmp[:]); err != nil {
					return err
				}
			}
			ipCount += uint32(len(groupRefs))
			elems += uint32(len(groupRefs))
			groupRefs = groupRefs[:0]
			havePrev = false
			return nil
		}
		flushIP := func() {
			var e [V3IPEntry]byte
			binary.LittleEndian.PutUint32(e[0:], curIP)
			binary.LittleEndian.PutUint32(e[4:], ipStart)
			binary.LittleEndian.PutUint32(e[8:], ipCount)
			ipKeys = append(ipKeys, e[:]...)
		}
		err = ix.ipSort.Merge(func(r ipRec) error {
			if started && r.ip == curIP && r.scan == curScan {
				if havePrev && r.cert == prevCert {
					return nil // repeat sighting of the same (scan, cert) at this IP
				}
				prevCert, havePrev = r.cert, true
				groupRefs = append(groupRefs, refOf[r.cert])
				return nil
			}
			if started {
				if err := flushSubgroup(); err != nil {
					return err
				}
				if r.ip != curIP {
					flushIP()
					curIP, ipStart, ipCount = r.ip, elems, 0
				}
			} else {
				started = true
				curIP, ipStart, ipCount = r.ip, 0, 0
			}
			curScan = r.scan
			prevCert, havePrev = r.cert, true
			groupRefs = append(groupRefs, refOf[r.cert])
			return nil
		})
		if err == nil && started {
			if err = flushSubgroup(); err == nil {
				flushIP()
			}
		}
		if err != nil {
			return out, err
		}
	}
	out[2] = v3SectionData{kind: V3KindIP, keyCount: uint64(len(ipKeys) / V3IPEntry), keys: ipKeys}

	// AS section: per asn, distinct cert refs ascending. Without an AS view
	// the section is empty, never wrong.
	var asKeys []byte
	if ix.asSort != nil {
		elems := uint32(0)
		var curASN uint32
		var started bool
		var groupRefs []uint32
		var prevCert uint32
		var havePrev bool
		var postTmp [4]byte

		flushASN := func() error {
			slices.Sort(groupRefs)
			for _, ref := range groupRefs {
				binary.LittleEndian.PutUint32(postTmp[:], ref)
				if _, err := asPost.Write(postTmp[:]); err != nil {
					return err
				}
			}
			var e [V3ASEntry]byte
			binary.LittleEndian.PutUint32(e[0:], curASN)
			binary.LittleEndian.PutUint32(e[4:], elems)
			binary.LittleEndian.PutUint32(e[8:], uint32(len(groupRefs)))
			asKeys = append(asKeys, e[:]...)
			elems += uint32(len(groupRefs))
			groupRefs = groupRefs[:0]
			havePrev = false
			return nil
		}
		err = ix.asSort.Merge(func(r asRec) error {
			if started && r.asn != curASN {
				if err := flushASN(); err != nil {
					return err
				}
				curASN = r.asn
			} else if !started {
				started = true
				curASN = r.asn
			}
			if havePrev && r.cert == prevCert {
				return nil
			}
			prevCert, havePrev = r.cert, true
			groupRefs = append(groupRefs, refOf[r.cert])
			return nil
		})
		if err == nil && started {
			err = flushASN()
		}
		if err != nil {
			return out, err
		}
	}
	out[3] = v3SectionData{kind: V3KindAS, keyCount: uint64(len(asKeys) / V3ASEntry), keys: asKeys}

	// Scan metadata, in scan-ID order.
	metaKeys := make([]byte, len(ix.scans)*V3ScanMetaEntry)
	for i, s := range ix.scans {
		e := metaKeys[i*V3ScanMetaEntry:]
		binary.LittleEndian.PutUint32(e[0:], uint32(s.op))
		binary.LittleEndian.PutUint32(e[4:], uint32(s.at.Nanosecond()))
		binary.LittleEndian.PutUint64(e[8:], uint64(s.at.Unix()))
		binary.LittleEndian.PutUint32(e[16:], uint32(s.count))
	}
	out[4] = v3SectionData{kind: V3KindScanMeta, keyCount: uint64(len(ix.scans)), keys: metaKeys}
	return out, nil
}

// mergeFanIn reports the widest k-way merge build will perform.
func (ix *v3Index) mergeFanIn() int {
	n := 0
	if ix.ipSort != nil {
		n = ix.ipSort.FanIn()
	}
	if ix.asSort != nil {
		n = max(n, ix.asSort.FanIn())
	}
	return n
}

// close releases the sorters' spill runs. Safe to call more than once.
func (ix *v3Index) close() error {
	var first error
	if ix.ipSort != nil {
		first = ix.ipSort.Close()
		ix.ipSort = nil
	}
	if ix.asSort != nil {
		if err := ix.asSort.Close(); err != nil && first == nil {
			first = err
		}
		ix.asSort = nil
	}
	return first
}
