// Quickstart: build a small database, parse a conjunctive query, classify
// it along the paper's dichotomies, and run all three tasks — decide,
// count, enumerate.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/database"
	"repro/internal/logic"
	"repro/internal/plan"
)

func main() {
	// A tiny product catalogue: bought(customer, product),
	// category(product, kind).
	db := database.NewDatabase()
	dict := database.NewDictionary()
	bought := database.NewRelation("bought", 2)
	category := database.NewRelation("category", 2)
	facts := [][3]string{
		{"bought", "ada", "laptop"},
		{"bought", "ada", "keyboard"},
		{"bought", "bob", "laptop"},
		{"bought", "cyd", "monitor"},
		{"category", "laptop", "electronics"},
		{"category", "keyboard", "electronics"},
		{"category", "monitor", "electronics"},
	}
	for _, f := range facts {
		rel := bought
		if f[0] == "category" {
			rel = category
		}
		rel.InsertValues(dict.Intern(f[1]), dict.Intern(f[2]))
	}
	db.AddRelation(bought)
	db.AddRelation(category)

	// Who bought something, and in which category?
	q, err := logic.ParseCQ("Q(who, kind) :- bought(who, p), category(p, kind).")
	if err != nil {
		log.Fatal(err)
	}

	// 1. Classification (Theorem 4.2 / 4.6 / 4.28 verdicts).
	fmt.Println("--- analysis ---")
	fmt.Print(plan.Analyze(q))

	// Compile picks the engines from the analysis; Bind runs their
	// preprocessing over db once, and every task below reuses it. This
	// query projects away the joining variable p, so it is not free-connex
	// and enumerates with linear delay (Theorem 4.3); a free-connex query
	// would get constant delay (Theorem 4.6).
	p, err := plan.Compile(q)
	if err != nil {
		log.Fatal(err)
	}
	pr, err := p.Bind(db)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Decide the Boolean version.
	ok, err := pr.Decide(nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nsatisfiable:", ok)

	// 3. Count without enumerating (star-size counting, Theorem 4.28).
	n, err := pr.Count(nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("answers:", n)

	// 4. Enumerate.
	e, err := pr.Enumerate(nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("--- answers ---")
	for {
		t, done := e.Next()
		if !done {
			break
		}
		fmt.Println(core.FormatTuple(t, dict))
	}
}
