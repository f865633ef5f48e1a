package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/database"
)

// FuzzSnapshot feeds arbitrary bytes through the full snapshot reader. The
// contract a serving daemon depends on: no input panics, and every
// rejection is one of the five typed errors — so qservd can distinguish
// "corrupt file" from a programming bug and refuse to boot cleanly.
func FuzzSnapshot(f *testing.F) {
	db := database.NewDatabase()
	r := database.NewRelation("edge", 2)
	for i := 0; i < 16; i++ {
		r.Insert(database.Tuple{database.Value(i % 5), database.Value(i % 3)})
	}
	r.Dedup()
	db.AddRelation(r)
	db.AddRelation(database.FromTuples("unit", 1, []database.Tuple{{7}}))
	dict := database.NewDictionary()
	dict.Intern("a")
	dict.Intern("b")

	var buf bytes.Buffer
	if err := Write(&buf, db, dict, &Options{Indexes: map[string][][]int{"edge": {{0}, {0, 1}}}}); err != nil {
		f.Fatal(err)
	}
	// The seed also carries a retired kind-5 shards section, so the fuzzer
	// mutates the reserved-section path too.
	vb := withRetiredShards(f, buf.Bytes(), "edge", 2)
	f.Add(vb)
	f.Add([]byte(magic))
	f.Add([]byte(footMagic))
	f.Add([]byte{})

	// Seed structured mutants so the fuzzer starts past the framing layer:
	// flipped payload, flipped TOC bytes, truncations, and a header that
	// claims a huge TOC.
	for _, cut := range []int{1, 13, footerSize, len(vb) / 2} {
		if cut < len(vb) {
			f.Add(append([]byte(nil), vb[:len(vb)-cut]...))
		}
	}
	for _, flip := range []int{headerSize, len(vb) - footerSize + 8, len(vb) - 50} {
		m := append([]byte(nil), vb...)
		m[flip] ^= 0xff
		f.Add(m)
	}
	huge := append([]byte(nil), vb...)
	binary.LittleEndian.PutUint64(huge[len(huge)-footerSize+16:], 1<<40)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := FromBytes(b)
		if err == nil {
			// Accepted input must be fully usable: walk everything the
			// loaders would touch.
			for _, name := range s.Database().Names() {
				rel := s.Database().Relation(name)
				for _, tu := range rel.Tuples {
					if len(tu) != rel.Arity {
						t.Fatalf("relation %s: tuple %v vs arity %d", name, tu, rel.Arity)
					}
				}
			}
			_ = s.Dictionary().Names()
			return
		}
		for _, want := range []error{ErrBadMagic, ErrBadVersion, ErrTruncated, ErrChecksum, ErrCorrupt} {
			if errors.Is(err, want) {
				return
			}
		}
		t.Fatalf("untyped error from FromBytes: %v", err)
	})
}
