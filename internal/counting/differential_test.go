package counting

// Differential suite for the counting engines: every count is pinned to
// internal/oracle's brute-force answer sets on seeded random instances. A
// failure prints the seed, query, and database; replay with
//
//	go test ./internal/counting -run TestDifferential -seed=N

import (
	"flag"
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/database"
	"repro/internal/oracle"
	"repro/internal/qgen"
)

var seedFlag = flag.Int64("seed", -1, "replay a single differential-suite seed (-1 runs the full sweep)")

const numSeeds = 250

func diffSeeds() []int64 {
	if *seedFlag >= 0 {
		return []int64{*seedFlag}
	}
	seeds := make([]int64, numSeeds)
	for i := range seeds {
		seeds[i] = int64(i)
	}
	return seeds
}

func failInstance(t *testing.T, seed int64, q fmt.Stringer, db *database.Database, format string, args ...interface{}) {
	t.Helper()
	t.Fatalf("%s\nseed %d — replay with: go test ./internal/counting -run %s -seed=%d\n%s",
		fmt.Sprintf(format, args...), seed, t.Name(), seed, qgen.FormatInstance(q, db))
}

// TestDifferentialCount: the quantified-star-size algorithm (Theorem 4.28)
// agrees with the oracle on free-connex instances with projections.
func TestDifferentialCount(t *testing.T) {
	for _, seed := range diffSeeds() {
		q, db := qgen.Instance(seed)
		want, err := oracle.Count(db, q)
		if err != nil {
			failInstance(t, seed, q, db, "oracle: %v", err)
		}
		s := BigInt{}
		v, err := Count(db, q, UnitWeight(s), s, nil)
		if err != nil {
			failInstance(t, seed, q, db, "Count: %v", err)
		}
		if got := s.String(v); got != strconv.Itoa(want) {
			failInstance(t, seed, q, db, "Count %s != oracle %d", got, want)
		}
	}
}

// TestDifferentialCountFullJoin: the projection-free weighted DP
// (Theorem 4.21, via CountQuantifierFree) agrees with the oracle on
// quantifier-free instances.
func TestDifferentialCountFullJoin(t *testing.T) {
	cfg := qgen.Default()
	for _, seed := range diffSeeds() {
		rng := rand.New(rand.NewSource(seed))
		q := qgen.FullCQ(rng, cfg)
		db := qgen.DatabaseFor(rng, cfg, q)
		want, err := oracle.Count(db, q)
		if err != nil {
			failInstance(t, seed, q, db, "oracle: %v", err)
		}
		s := BigInt{}
		v, err := CountQuantifierFree(db, q, UnitWeight(s), s, nil)
		if err != nil {
			failInstance(t, seed, q, db, "CountQuantifierFree: %v", err)
		}
		if s.String(v) != strconv.Itoa(want) {
			failInstance(t, seed, q, db, "CountQuantifierFree %s != oracle %d", s.String(v), want)
		}
	}
}

// TestDifferentialCountUCQ: inclusion–exclusion over disjunct intersections
// agrees with the oracle's duplicate-free union count.
func TestDifferentialCountUCQ(t *testing.T) {
	cfg := qgen.Default()
	// Intersections multiply the variable count; keep disjuncts small so
	// the oracle side stays fast.
	cfg.MaxAtoms = 3
	cfg.MaxFresh = 1
	for _, seed := range diffSeeds() {
		rng := rand.New(rand.NewSource(seed))
		u := qgen.UCQ(rng, cfg)
		db := qgen.DatabaseForUCQ(rng, cfg, u)
		want, err := oracle.CountUCQ(db, u)
		if err != nil {
			failInstance(t, seed, u, db, "oracle: %v", err)
		}
		got, err := CountUCQ(db, u)
		if err != nil {
			failInstance(t, seed, u, db, "CountUCQ: %v", err)
		}
		if !got.IsInt64() || got.Int64() != int64(want) {
			failInstance(t, seed, u, db, "CountUCQ %s != oracle %d", got, want)
		}
	}
}
