// Fieldsensitivity contrasts the two struct treatments of Section 3 on
// the paper's own example: field-based (Andersen's choice, and this
// system's default) versus field-independent (used by most other
// points-to systems of the era). Neither dominates: each reports flows
// the other misses.
package main

import (
	"context"
	"fmt"
	"log"

	"cla"
)

// The example from Section 3 of the paper.
const source = `
struct S { int *x; int *y; } A, B;
int z;

void main_(void) {
	int *p, *q, *r, *s;
	A.x = &z;   /* field-based: assigns to "S.x"; field-independent: to A */
	p = A.x;    /* p gets &z in both approaches */
	q = A.y;    /* field-independent: q gets &z */
	r = B.x;    /* field-based: r gets &z */
	s = B.y;    /* in neither approach does s get &z */
}
`

func run(mode cla.StructMode, label string) {
	db, err := cla.CompileSource("s.c", source, &cla.Options{Mode: mode})
	if err != nil {
		log.Fatal(err)
	}
	an, err := db.AnalyzeCtx(context.Background(), nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("--- %s ---\n", label)
	for _, name := range []string{"p", "q", "r", "s"} {
		var names []string
		for _, o := range an.PointsToName(name) {
			names = append(names, o.Name())
		}
		fmt.Printf("pts(%s) = %v\n", name, names)
	}
	m := an.Metrics()
	fmt.Printf("pointer vars: %d, relations: %d\n\n", m.PointerVars, m.Relations)
}

func main() {
	run(cla.FieldBased, "field-based (the paper's default)")
	run(cla.FieldIndependent, "field-independent (most other systems)")
	fmt.Println("field-based finds r = B.x -> z (same field, different object);")
	fmt.Println("field-independent finds q = A.y -> z (same object, different field).")
}
