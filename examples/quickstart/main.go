// Quickstart: compile a C fragment, run points-to analysis, and query
// results — the paper's Figure 3/4 examples end to end.
package main

import (
	"context"
	"fmt"
	"log"

	"cla"
)

// The program from Figure 4 of the paper, plus Figure 3's derivation
// (z = &y; *z = &x gives y -> &x).
const source = `
int x, y, z, *p, *q;
int **zz;

void figure4(void) {
	x = y;
	x = z;
	*p = z;
	p = q;
	q = &y;
	x = *p;
}

void figure3(void) {
	zz = &q;
	*zz = &x;
}
`

func main() {
	// Compile: parse the unit and extract primitive assignments into an
	// object database.
	db, err := cla.CompileSource("a.c", source, nil)
	if err != nil {
		log.Fatal(err)
	}
	st := db.Stats()
	fmt.Printf("database: %d symbols, %d assignments (x=y:%d x=&y:%d *x=y:%d *x=*y:%d x=*y:%d)\n",
		st.Symbols, st.Total(), st.Simple, st.Base, st.Store, st.Copy, st.Load)

	// Analyze: the pre-transitive solver with caching, cycle elimination
	// and demand loading.
	an, err := db.AnalyzeCtx(context.Background(), nil)
	if err != nil {
		log.Fatal(err)
	}

	for _, name := range []string{"p", "q", "zz"} {
		fmt.Printf("pts(%s) = %v\n", name, objectNames(an.PointsToName(name)))
	}

	// Figure 3's derived fact: q (the paper's y) points to x.
	fmt.Printf("derived: q -> %v (Figure 3: y -> &x)\n",
		objectNames(an.PointsToName("q")))

	// Aliasing query.
	p := db.Lookup("p")[0]
	q := db.Lookup("q")[0]
	fmt.Printf("mayAlias(p, q) = %v\n", an.MayAlias(p, q))

	m := an.Metrics()
	fmt.Printf("metrics: %d pointer vars, %d relations, %d loaded of %d in file\n",
		m.PointerVars, m.Relations, m.Loaded, m.InFile)
}

func objectNames(objs []cla.Object) []string {
	var out []string
	for _, o := range objs {
		out = append(out, o.Name())
	}
	return out
}
