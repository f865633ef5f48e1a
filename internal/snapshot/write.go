package snapshot

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"io"
	"os"
	"path/filepath"

	"repro/internal/database"
)

// Options selects the optional sections. Indexes maps a relation name to
// the column lists whose CSR indexes should be prebuilt into the file. A
// nil Options writes slabs and the dictionary only.
type Options struct {
	Indexes map[string][][]int
}

// sectionWriter streams sections to w, tracking the file offset, the
// current section's CRC, and the first error. Nothing is buffered beyond
// the bufio layer, so writing a snapshot needs O(1) extra memory however
// large the database.
type sectionWriter struct {
	w   io.Writer
	off uint64
	crc uint64
	err error
}

// raw writes bytes outside any section (header, padding, TOC, footer).
func (sw *sectionWriter) raw(p []byte) {
	if sw.err != nil {
		return
	}
	_, sw.err = sw.w.Write(p)
	sw.off += uint64(len(p))
}

var pad8 [8]byte

// begin pads to 8-byte alignment and opens a new section.
func (sw *sectionWriter) begin() uint64 {
	if rem := sw.off % 8; rem != 0 {
		sw.raw(pad8[:8-rem])
	}
	sw.crc = 0
	return sw.off
}

// sec writes section payload bytes, folding them into the section CRC.
func (sw *sectionWriter) sec(p []byte) {
	if sw.err != nil {
		return
	}
	sw.crc = crc64.Update(sw.crc, crcTable, p)
	sw.raw(p)
}

// Write streams db (and dict, which may be nil) to w in snapshot format.
// Relations are written in database insertion order and rows in relation
// order — never reordered, so a restored database enumerates identically.
func Write(w io.Writer, db *database.Database, dict *database.Dictionary, opts *Options) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	sw := &sectionWriter{w: bw}

	var hdr [headerSize]byte
	copy(hdr[:8], magic)
	binary.LittleEndian.PutUint32(hdr[8:], version)
	binary.LittleEndian.PutUint32(hdr[12:], flagLittleEndian)
	sw.raw(hdr[:])

	var entries []tocEntry
	for _, name := range db.Names() {
		r := db.Relations[name]
		e, err := writeSlab(sw, r)
		if err != nil {
			return err
		}
		entries = append(entries, e)
		if opts != nil {
			for _, cols := range opts.Indexes[name] {
				e, err := writeIndex(sw, r, cols)
				if err != nil {
					return err
				}
				entries = append(entries, e)
			}
		}
	}
	if dict != nil {
		entries = append(entries, writeDict(sw, dict))
	}

	toc := make([]byte, 0, 64*len(entries))
	toc = binary.LittleEndian.AppendUint32(toc, uint32(len(entries)))
	for i := range entries {
		toc = entries[i].encode(toc)
	}
	tocOff := sw.begin()
	sw.sec(toc)
	tocCRC := sw.crc

	var foot [footerSize]byte
	binary.LittleEndian.PutUint64(foot[0:], db.StructuralGen())
	binary.LittleEndian.PutUint64(foot[8:], tocOff)
	binary.LittleEndian.PutUint64(foot[16:], uint64(len(toc)))
	binary.LittleEndian.PutUint64(foot[24:], tocCRC)
	copy(foot[32:], footMagic)
	sw.raw(foot[:])

	if sw.err != nil {
		return sw.err
	}
	return bw.Flush()
}

// WriteFile writes the snapshot to path atomically: a same-directory temp
// file renamed into place, so a crashed or failed write never leaves a
// half-snapshot behind for a daemon to map.
func WriteFile(path string, db *database.Database, dict *database.Dictionary, opts *Options) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".snap-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if err := Write(f, db, dict, opts); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// checkCols validates a column list against a relation for writing.
func checkCols(r *database.Relation, cols []int) ([]uint16, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("snapshot: empty column list for relation %s", r.Name)
	}
	out := make([]uint16, len(cols))
	for i, c := range cols {
		if c < 0 || c >= r.Arity {
			return nil, fmt.Errorf("snapshot: column %d out of arity %d for relation %s", c, r.Arity, r.Name)
		}
		out[i] = uint16(c)
	}
	return out, nil
}

// writeSlab streams one relation's rows as the in-memory slab layout:
// arity-strided little-endian values, row order preserved.
func writeSlab(sw *sectionWriter, r *database.Relation) (tocEntry, error) {
	if r.Name == "" || len(r.Name) > maxName {
		return tocEntry{}, fmt.Errorf("snapshot: bad relation name %q", r.Name)
	}
	if r.Arity > maxArity {
		return tocEntry{}, fmt.Errorf("snapshot: relation %s arity %d exceeds %d", r.Name, r.Arity, maxArity)
	}
	e := tocEntry{
		kind:  secSlab,
		name:  r.Name,
		arity: uint32(r.Arity),
		rows:  uint64(r.Len()),
		gen:   r.Generation(),
		off:   sw.begin(),
	}
	if r.Sorted() {
		e.flags |= entrySorted
	}
	buf := make([]byte, 0, 1<<13)
	for _, t := range r.Tuples {
		if len(t) != r.Arity {
			return tocEntry{}, fmt.Errorf("snapshot: relation %s holds a tuple of length %d, arity %d", r.Name, len(t), r.Arity)
		}
		for _, v := range t {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		}
		if len(buf) >= 1<<13 {
			sw.sec(buf)
			buf = buf[:0]
		}
	}
	sw.sec(buf)
	e.length = sw.off - e.off
	e.crc = sw.crc
	return e, nil
}

// writeIndex prebuilds and streams one CSR index section.
func writeIndex(sw *sectionWriter, r *database.Relation, cols []int) (tocEntry, error) {
	wcols, err := checkCols(r, cols)
	if err != nil {
		return tocEntry{}, err
	}
	c := r.DumpIndex(cols)
	e := tocEntry{
		kind: secIndex,
		name: r.Name,
		cols: wcols,
		rows: uint64(len(c.Rows)),
		off:  sw.begin(),
	}
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(c.Rows)))
	for _, id := range c.Rows {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.FPs)))
	for i, fp := range c.FPs {
		buf = binary.LittleEndian.AppendUint64(buf, fp)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(c.Offs[i]))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(c.Lens[i]))
	}
	sw.sec(buf)
	e.length = sw.off - e.off
	e.crc = sw.crc
	return e, nil
}

// writeDict streams the dictionary in value-id order, so Intern replay on
// load reproduces identical Values.
func writeDict(sw *sectionWriter, dict *database.Dictionary) tocEntry {
	names := dict.Names()
	e := tocEntry{
		kind: secDict,
		rows: uint64(len(names)),
		off:  sw.begin(),
	}
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(names)))
	for _, n := range names {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(n)))
		buf = append(buf, n...)
		if len(buf) >= 1<<13 {
			sw.sec(buf)
			buf = buf[:0]
		}
	}
	sw.sec(buf)
	e.length = sw.off - e.off
	e.crc = sw.crc
	return e
}
