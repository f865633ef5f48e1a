package core

import (
	"strings"
	"testing"

	"repro/internal/database"
)

func TestLoadFacts(t *testing.T) {
	src := `
# a small social network
friend(alice, bob).
friend(bob, carol).
age(alice, 31).
flag(7).

friend(alice, bob).
`
	dict := database.NewDictionary()
	db, err := LoadFacts(strings.NewReader(src), dict)
	if err != nil {
		t.Fatal(err)
	}
	if db.Relation("friend").Len() != 2 {
		t.Errorf("friend: %d tuples, want 2 (dedup)", db.Relation("friend").Len())
	}
	if db.Relation("age").Len() != 1 || db.Relation("flag").Len() != 1 {
		t.Errorf("age/flag loading failed")
	}
	// Numbers stay numbers; symbols intern.
	if db.Relation("flag").Tuples[0][0] != 7 {
		t.Errorf("numeric constant mangled")
	}
	got := FormatTuple(db.Relation("friend").Tuples[0], dict)
	if !strings.Contains(got, "alice") && !strings.Contains(got, "bob") {
		t.Errorf("FormatTuple: %s", got)
	}
	// Errors.
	if _, err := LoadFacts(strings.NewReader("nonsense"), dict); err == nil {
		t.Errorf("malformed line must fail")
	}
	if _, err := LoadFacts(strings.NewReader("r(a).\nr(a,b)."), dict); err == nil {
		t.Errorf("arity clash must fail")
	}
}
