// Package snapshot persists a whole database.Database as one versioned,
// checksummed binary file and restores it either by reading (heap-backed,
// mutation-ready) or by mmap-ing (read-only pages shared across
// processes, promoted to heap copy-on-first-mutation by the relation
// layer). The point is the ROADMAP's out-of-core item: preprocessing is
// done once at snapshot-build time — slabs laid out, dictionaries
// interned, CSR indexes optionally prebuilt — and a serving process starts
// in milliseconds by mapping the file instead of re-parsing text facts.
//
// # File layout
//
//	header   16 B   magic "QSNAP\x00v1", version, flags (bit0: little-endian payload)
//	sections ...    8-byte aligned, one per TOC entry, individually CRC-64'd
//	TOC             per-section directory: kind, name, arity/rows/gen/cols/reserved, off/len/crc
//	footer   40 B   structural generation, TOC offset/length/CRC, magic "QSNAPEND"
//
// Section kinds: a relation's columnar slab (row-major []Value, exactly
// the layout Relation.Slab builds in memory, so a little-endian host can
// use mapped sections in place without any decode); an optional tombstone
// bitmap (dead rows skipped at load — written by no current producer but
// accepted for format evolution); the interned Dictionary in value-id
// order; and optional prebuilt single-shard CSR indexes
// (database.IndexCSR). Kind 5 is reserved: earlier writers stored
// hash-shard partitions under it (a (k+1)-offset uint32 CSR over per-shard
// row-id lists, k in the TOC entry), which no engine ever read. No writer
// emits it any more; the reader verifies its checksum and skips it.
//
// Everything is validated before use: magics, version, section bounds and
// alignment, every CRC, arity/row arithmetic (with overflow checks), and
// the structural invariants of index sections. Corruption
// surfaces as ErrBadMagic/ErrBadVersion/ErrTruncated/ErrChecksum/
// ErrCorrupt — never a panic, which FuzzSnapshot enforces.
//
// Row order is sacred: the writer persists slabs in relation row order, so
// enumeration order — and with it the engines' counted steps — is
// bit-identical across heap-backed, snapshot-reloaded, and mmap-backed
// execution. The differential suite pins this.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
)

const (
	magic      = "QSNAP\x00v1"
	footMagic  = "QSNAPEND"
	version    = 1
	headerSize = 16
	footerSize = 40

	// flagLittleEndian marks the payload byte order. The writer always
	// emits little-endian; a big-endian reader decodes instead of mapping.
	flagLittleEndian = 1 << 0

	// maxArity bounds a relation's arity to keep rows*arity arithmetic far
	// from overflow; no real schema comes near it.
	maxArity = 1 << 20
	// maxName bounds relation and dictionary entry names.
	maxName = 1 << 20
)

// Section kinds.
const (
	secSlab   uint8 = 1 // columnar relation payload
	secTomb   uint8 = 2 // tombstone bitmap over a relation's rows
	secDict   uint8 = 3 // interned dictionary, value-id order
	secIndex  uint8 = 4 // prebuilt single-shard CSR index
	secShards uint8 = 5 // reserved: retired hash-shard partition, skipped on read
)

// Typed errors. Readers wrap them with positional context; callers match
// with errors.Is.
var (
	ErrBadMagic   = errors.New("snapshot: bad magic")
	ErrBadVersion = errors.New("snapshot: unsupported version")
	ErrTruncated  = errors.New("snapshot: truncated")
	ErrChecksum   = errors.New("snapshot: checksum mismatch")
	ErrCorrupt    = errors.New("snapshot: corrupt section")
)

// crcTable is the CRC-64/ECMA table shared by writer and reader.
var crcTable = crc64.MakeTable(crc64.ECMA)

// tocEntry is one section's directory record.
type tocEntry struct {
	kind   uint8
	flags  uint8 // bit0: sorted (secSlab)
	name   string
	arity  uint32
	k      uint32 // reserved: shard count of a retired secShards entry, else 0
	rows   uint64 // slab/tomb: row count; dict: name count
	gen    uint64 // secSlab: relation generation
	cols   []uint16
	off    uint64
	length uint64
	crc    uint64
}

const entrySorted = 1 << 0

// tocEntrySize is the fixed prefix of an encoded entry; name bytes and
// 2-byte columns follow.
const tocEntrySize = 56

func (e *tocEntry) encode(b []byte) []byte {
	b = append(b, e.kind, e.flags)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(e.cols)))
	b = binary.LittleEndian.AppendUint32(b, e.arity)
	b = binary.LittleEndian.AppendUint32(b, e.k)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(e.name)))
	b = binary.LittleEndian.AppendUint64(b, e.rows)
	b = binary.LittleEndian.AppendUint64(b, e.gen)
	b = binary.LittleEndian.AppendUint64(b, e.off)
	b = binary.LittleEndian.AppendUint64(b, e.length)
	b = binary.LittleEndian.AppendUint64(b, e.crc)
	b = append(b, e.name...)
	for _, c := range e.cols {
		b = binary.LittleEndian.AppendUint16(b, c)
	}
	return b
}

// decodeEntry parses one entry at the front of b, returning the entry and
// the remaining bytes.
func decodeEntry(b []byte) (tocEntry, []byte, error) {
	var e tocEntry
	if len(b) < tocEntrySize {
		return e, nil, fmt.Errorf("%w: TOC entry header", ErrTruncated)
	}
	e.kind = b[0]
	e.flags = b[1]
	nCols := int(binary.LittleEndian.Uint16(b[2:]))
	e.arity = binary.LittleEndian.Uint32(b[4:])
	e.k = binary.LittleEndian.Uint32(b[8:])
	nameLen := binary.LittleEndian.Uint32(b[12:])
	e.rows = binary.LittleEndian.Uint64(b[16:])
	e.gen = binary.LittleEndian.Uint64(b[24:])
	e.off = binary.LittleEndian.Uint64(b[32:])
	e.length = binary.LittleEndian.Uint64(b[40:])
	e.crc = binary.LittleEndian.Uint64(b[48:])
	b = b[tocEntrySize:]
	if nameLen > maxName {
		return e, nil, fmt.Errorf("%w: TOC name length %d", ErrCorrupt, nameLen)
	}
	if uint64(len(b)) < uint64(nameLen)+2*uint64(nCols) {
		return e, nil, fmt.Errorf("%w: TOC entry body", ErrTruncated)
	}
	e.name = string(b[:nameLen])
	b = b[nameLen:]
	e.cols = make([]uint16, nCols)
	for i := range e.cols {
		e.cols[i] = binary.LittleEndian.Uint16(b[2*i:])
	}
	return e, b[2*nCols:], nil
}

// intCols widens a TOC column list for the database layer.
func intCols(cols []uint16) []int {
	out := make([]int, len(cols))
	for i, c := range cols {
		out[i] = int(c)
	}
	return out
}
