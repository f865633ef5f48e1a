package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"io"
	"math"
	"os"

	"repro/internal/database"
)

// Snapshot is an open, fully validated snapshot: the restored database
// and dictionary. A mapped snapshot's relations alias the underlying pages
// until they promote on first mutation; Close unmaps, so it must only be
// called once the database (and any tuples handed out from it) is no
// longer in use.
type Snapshot struct {
	db     *database.Database
	dict   *database.Dictionary
	mapped bool
	close  func() error
}

// Database returns the restored database.
func (s *Snapshot) Database() *database.Database { return s.db }

// Dictionary returns the restored dictionary (never nil; empty when the
// file carried none).
func (s *Snapshot) Dictionary() *database.Dictionary { return s.dict }

// Mapped reports whether relations alias mmap-ed file pages (as opposed
// to heap copies).
func (s *Snapshot) Mapped() bool { return s.mapped }

// Close releases the mapping, if any. The database must no longer be in
// use unless every relation has promoted to heap storage.
func (s *Snapshot) Close() error {
	if s.close == nil {
		return nil
	}
	c := s.close
	s.close = nil
	return c()
}

// Sniff reports whether b begins with the snapshot magic — how the
// loaders decide between fact-text parsing and snapshot reading.
func Sniff(b []byte) bool {
	return len(b) >= len(magic) && string(b[:len(magic)]) == magic
}

// Read restores a snapshot from r into heap storage (mutation-ready, no
// pages shared). The whole stream is read and validated first.
func Read(r io.Reader) (*Snapshot, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return FromBytes(b)
}

// ReadFile is Read over a file.
func ReadFile(path string) (*Snapshot, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return FromBytes(b)
}

// FromBytes restores a snapshot from untrusted bytes into heap storage.
// Arbitrary input yields a typed error, never a panic (FuzzSnapshot pins
// this).
func FromBytes(b []byte) (*Snapshot, error) {
	return build(b, false, nil)
}

// Open maps path and restores the snapshot over the mapping: relation
// slabs alias the read-only pages (zero copy, shared between every
// process mapping the same file) and promote to heap on first mutation.
// On platforms without mmap — or on a big-endian host, where the
// little-endian payload cannot be used in place — Open falls back to a
// heap read and Mapped reports false.
func Open(path string) (*Snapshot, error) {
	b, closeFn, err := mapFile(path)
	if err != nil || !hostLittleEndian() {
		if closeFn != nil {
			closeFn()
		}
		return ReadFile(path)
	}
	s, err := build(b, true, closeFn)
	if err != nil {
		closeFn()
		return nil, err
	}
	return s, nil
}

// parsed is the validated shape of a snapshot file.
type parsed struct {
	entries       []tocEntry
	structuralGen uint64
}

// parse validates framing: magics, version, footer, TOC checksum and
// entry bounds. Section payload checksums are verified by build.
func parse(b []byte) (*parsed, error) {
	if len(b) < len(magic) {
		return nil, fmt.Errorf("%w: %d-byte file", ErrTruncated, len(b))
	}
	if !Sniff(b) {
		return nil, ErrBadMagic
	}
	if len(b) < headerSize+footerSize {
		return nil, fmt.Errorf("%w: %d-byte file", ErrTruncated, len(b))
	}
	if v := binary.LittleEndian.Uint32(b[8:]); v != version {
		return nil, fmt.Errorf("%w: version %d, reader supports %d", ErrBadVersion, v, version)
	}
	if binary.LittleEndian.Uint32(b[12:])&flagLittleEndian == 0 {
		return nil, fmt.Errorf("%w: big-endian payload flag", ErrBadVersion)
	}
	foot := b[len(b)-footerSize:]
	if string(foot[32:40]) != footMagic {
		return nil, fmt.Errorf("%w: footer magic", ErrTruncated)
	}
	p := &parsed{structuralGen: binary.LittleEndian.Uint64(foot[0:])}
	tocOff := binary.LittleEndian.Uint64(foot[8:])
	tocLen := binary.LittleEndian.Uint64(foot[16:])
	tocCRC := binary.LittleEndian.Uint64(foot[24:])
	fileEnd := uint64(len(b) - footerSize)
	if tocOff < headerSize || tocLen > fileEnd || tocOff > fileEnd-tocLen {
		return nil, fmt.Errorf("%w: TOC [%d,+%d) outside file", ErrTruncated, tocOff, tocLen)
	}
	toc := b[tocOff : tocOff+tocLen]
	if crc64.Checksum(toc, crcTable) != tocCRC {
		return nil, fmt.Errorf("%w: TOC", ErrChecksum)
	}
	if len(toc) < 4 {
		return nil, fmt.Errorf("%w: TOC count", ErrTruncated)
	}
	n := binary.LittleEndian.Uint32(toc)
	toc = toc[4:]
	if uint64(n)*tocEntrySize > uint64(len(toc)) {
		return nil, fmt.Errorf("%w: TOC claims %d entries in %d bytes", ErrCorrupt, n, len(toc))
	}
	p.entries = make([]tocEntry, 0, n)
	for i := uint32(0); i < n; i++ {
		e, rest, err := decodeEntry(toc)
		if err != nil {
			return nil, err
		}
		toc = rest
		if e.off < headerSize || e.length > tocOff || e.off > tocOff-e.length {
			return nil, fmt.Errorf("%w: section %q [%d,+%d) outside data area", ErrTruncated, e.name, e.off, e.length)
		}
		if e.off%8 != 0 {
			return nil, fmt.Errorf("%w: section %q misaligned at %d", ErrCorrupt, e.name, e.off)
		}
		p.entries = append(p.entries, e)
	}
	return p, nil
}

// build validates every section and materializes the database. When
// mapped is set (little-endian host, mmap succeeded), slab payloads are
// used in place; otherwise they are decoded into heap slices.
func build(b []byte, mapped bool, closeFn func() error) (s *Snapshot, err error) {
	// The validation below is intended to be exhaustive; recover is the
	// fuzz-proof backstop that turns any escapee into a typed error
	// instead of a crashed daemon.
	defer func() {
		if r := recover(); r != nil {
			s, err = nil, fmt.Errorf("%w: reader panic: %v", ErrCorrupt, r)
		}
	}()
	p, err := parse(b)
	if err != nil {
		return nil, err
	}
	for i := range p.entries {
		e := &p.entries[i]
		if crc64.Checksum(payload(b, e), crcTable) != e.crc {
			return nil, fmt.Errorf("%w: section %q (kind %d)", ErrChecksum, e.name, e.kind)
		}
	}

	s = &Snapshot{
		db:     database.NewDatabase(),
		dict:   database.NewDictionary(),
		mapped: mapped,
		close:  closeFn,
	}
	tombs := map[string]*tocEntry{}
	for i := range p.entries {
		if e := &p.entries[i]; e.kind == secTomb {
			if tombs[e.name] != nil {
				return nil, fmt.Errorf("%w: duplicate tombstones for %q", ErrCorrupt, e.name)
			}
			tombs[e.name] = e
		}
	}
	sawDict := false
	for i := range p.entries {
		e := &p.entries[i]
		switch e.kind {
		case secSlab:
			if s.db.Relation(e.name) != nil {
				return nil, fmt.Errorf("%w: duplicate relation %q", ErrCorrupt, e.name)
			}
			r, err := buildRelation(b, e, tombs[e.name], mapped)
			if err != nil {
				return nil, err
			}
			s.db.AddRelation(r)
		case secTomb:
			// consumed alongside its slab
		case secDict:
			if sawDict {
				return nil, fmt.Errorf("%w: duplicate dictionary", ErrCorrupt)
			}
			sawDict = true
			if s.dict, err = buildDict(payload(b, e), e); err != nil {
				return nil, err
			}
		case secIndex:
			if err := restoreIndex(b, e, s.db); err != nil {
				return nil, err
			}
		case secShards:
			// Retired kind: checksum-verified above like every section,
			// otherwise ignored, so files from an older writer still open.
		default:
			return nil, fmt.Errorf("%w: unknown section kind %d", ErrCorrupt, e.kind)
		}
	}
	s.db.SetStructuralGen(p.structuralGen)
	return s, nil
}

func payload(b []byte, e *tocEntry) []byte {
	return b[e.off : e.off+e.length]
}

// buildRelation materializes one relation. The slab is used in place only
// when mapped and dense (no tombstones); a tombstoned slab is always
// compacted into fresh heap storage.
func buildRelation(b []byte, e, tomb *tocEntry, mapped bool) (*database.Relation, error) {
	if e.arity > maxArity {
		return nil, fmt.Errorf("%w: relation %q arity %d exceeds %d", ErrCorrupt, e.name, e.arity, maxArity)
	}
	if e.rows > math.MaxInt32 {
		return nil, fmt.Errorf("%w: relation %q claims %d rows, row ids are int32", ErrCorrupt, e.name, e.rows)
	}
	want := e.rows * uint64(e.arity) * 8
	if want != e.length {
		return nil, fmt.Errorf("%w: relation %q: %d rows of arity %d need %d bytes, section has %d",
			ErrCorrupt, e.name, e.rows, e.arity, want, e.length)
	}
	raw := payload(b, e)
	spec := database.SlabSpec{
		Name:   e.name,
		Arity:  int(e.arity),
		Rows:   int(e.rows),
		Sorted: e.flags&entrySorted != 0,
		Gen:    e.gen,
	}
	live := int(e.rows)
	var bitmap []byte
	if tomb != nil {
		bm := payload(b, tomb)
		if uint64(len(bm)) != (e.rows+7)/8 {
			return nil, fmt.Errorf("%w: tombstones for %q: %d bytes for %d rows", ErrCorrupt, e.name, len(bm), e.rows)
		}
		dead := 0
		for _, byt := range bm {
			dead += popcount(byt)
		}
		if uint64(dead) != tomb.rows {
			return nil, fmt.Errorf("%w: tombstones for %q: %d set bits, TOC says %d", ErrCorrupt, e.name, dead, tomb.rows)
		}
		live -= dead
		if live < 0 {
			return nil, fmt.Errorf("%w: tombstones for %q kill %d of %d rows", ErrCorrupt, e.name, dead, e.rows)
		}
		bitmap = bm
	}
	a := int(e.arity)
	switch {
	case bitmap != nil:
		// Compact the live rows into heap storage; a tombstoned slab is
		// never used in place (Relation.Row must stay position-consistent
		// with Tuples).
		spec.Rows = live
		spec.Data = make([]database.Value, 0, live*a)
		for i := 0; i < int(e.rows); i++ {
			if bitmap[i/8]&(1<<(i%8)) != 0 {
				continue
			}
			for c := 0; c < a; c++ {
				spec.Data = append(spec.Data, database.Value(binary.LittleEndian.Uint64(raw[(i*a+c)*8:])))
			}
		}
	case mapped:
		spec.Data = castValues(raw)
		spec.Mapped = true
	default:
		spec.Data = make([]database.Value, e.rows*uint64(e.arity))
		for i := range spec.Data {
			spec.Data[i] = database.Value(binary.LittleEndian.Uint64(raw[i*8:]))
		}
	}
	r, err := database.FromSlab(spec)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return r, nil
}

func popcount(b byte) int {
	n := 0
	for ; b != 0; b &= b - 1 {
		n++
	}
	return n
}

// buildDict replays the persisted name list through Intern, reproducing
// identical value ids.
func buildDict(raw []byte, e *tocEntry) (*database.Dictionary, error) {
	if len(raw) < 4 {
		return nil, fmt.Errorf("%w: dictionary count", ErrTruncated)
	}
	n := binary.LittleEndian.Uint32(raw)
	raw = raw[4:]
	if uint64(n) != e.rows {
		return nil, fmt.Errorf("%w: dictionary claims %d names, TOC says %d", ErrCorrupt, n, e.rows)
	}
	names := make([]string, 0, n)
	for i := uint32(0); i < n; i++ {
		if len(raw) < 4 {
			return nil, fmt.Errorf("%w: dictionary entry %d", ErrTruncated, i)
		}
		l := binary.LittleEndian.Uint32(raw)
		raw = raw[4:]
		if l > maxName || uint64(l) > uint64(len(raw)) {
			return nil, fmt.Errorf("%w: dictionary entry %d length %d", ErrTruncated, i, l)
		}
		names = append(names, string(raw[:l]))
		raw = raw[l:]
	}
	if len(raw) != 0 {
		return nil, fmt.Errorf("%w: %d trailing dictionary bytes", ErrCorrupt, len(raw))
	}
	d, err := database.DictionaryFromNames(names)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return d, nil
}

// restoreIndex decodes one CSR index section and installs it on its
// relation; database.RestoreIndex revalidates every bound.
func restoreIndex(b []byte, e *tocEntry, db *database.Database) error {
	r := db.Relation(e.name)
	if r == nil {
		return fmt.Errorf("%w: index for unknown relation %q", ErrCorrupt, e.name)
	}
	raw := payload(b, e)
	if len(raw) < 4 {
		return fmt.Errorf("%w: index rows count for %q", ErrTruncated, e.name)
	}
	nRows := binary.LittleEndian.Uint32(raw)
	raw = raw[4:]
	if uint64(nRows) != e.rows {
		return fmt.Errorf("%w: index for %q claims %d rows, TOC says %d", ErrCorrupt, e.name, nRows, e.rows)
	}
	if uint64(len(raw)) < uint64(nRows)*4+4 {
		return fmt.Errorf("%w: index rows for %q", ErrTruncated, e.name)
	}
	c := database.IndexCSR{Cols: intCols(e.cols), Rows: make([]int32, nRows)}
	for i := range c.Rows {
		c.Rows[i] = int32(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	raw = raw[4*nRows:]
	nBuckets := binary.LittleEndian.Uint32(raw)
	raw = raw[4:]
	if uint64(len(raw)) != uint64(nBuckets)*16 {
		return fmt.Errorf("%w: index buckets for %q: %d bytes for %d buckets", ErrCorrupt, e.name, len(raw), nBuckets)
	}
	c.FPs = make([]uint64, nBuckets)
	c.Offs = make([]int32, nBuckets)
	c.Lens = make([]int32, nBuckets)
	for i := uint32(0); i < nBuckets; i++ {
		c.FPs[i] = binary.LittleEndian.Uint64(raw[16*i:])
		c.Offs[i] = int32(binary.LittleEndian.Uint32(raw[16*i+8:]))
		c.Lens[i] = int32(binary.LittleEndian.Uint32(raw[16*i+12:]))
	}
	if err := r.RestoreIndex(c); err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return nil
}
