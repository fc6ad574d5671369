// Separatecompilation demonstrates the CLA architecture itself: each
// translation unit is compiled to an indexed object database (.clo), the
// databases are linked into one "executable" database with the same
// format, and the analysis then demand-loads just the blocks it needs —
// re-compiling nothing when a query changes, which is what makes
// interactive tools on million-line code bases feasible (Section 4).
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"cla"
)

var units = map[string]string{
	// A little allocator module.
	"alloc.c": `
void *malloc(unsigned long);
int pool_hits;
char *arena_alloc(unsigned long n) {
	char *p;
	p = malloc(n);
	pool_hits = pool_hits + 1;
	return p;
}`,
	// A string table built on the allocator.
	"strtab.c": `
char *arena_alloc(unsigned long);
char *table[64];
int table_len;
char *intern(unsigned long len) {
	char *s;
	s = arena_alloc(len);
	table[table_len] = s;
	return s;
}`,
	// A client that never touches the allocator directly.
	"client.c": `
char *intern(unsigned long);
char *name, *alias;
void record(void) {
	name = intern(16);
	alias = name;
}`,
}

func main() {
	dir, err := os.MkdirTemp("", "cla-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// COMPILE: each unit independently (could be parallel or incremental;
	// editing client.c would only rebuild client.clo).
	var objects []string
	for name, src := range units {
		db, err := cla.CompileSource(name, src, nil)
		if err != nil {
			log.Fatal(err)
		}
		obj := filepath.Join(dir, name+".clo")
		if err := db.WriteFile(obj); err != nil {
			log.Fatal(err)
		}
		st := db.Stats()
		fmt.Printf("compiled %-9s -> %d assignments, %d symbols\n",
			name, st.Total(), st.Symbols)
		objects = append(objects, obj)
	}

	// LINK: merge the databases; global symbols unify by name.
	var dbs []*cla.Database
	for _, obj := range objects {
		db, err := cla.OpenFile(obj)
		if err != nil {
			log.Fatal(err)
		}
		dbs = append(dbs, db)
	}
	linked, err := cla.Link(dbs...)
	if err != nil {
		log.Fatal(err)
	}
	exe := filepath.Join(dir, "program.cla")
	if err := linked.WriteFile(exe); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("linked   %d units -> %s (%d symbols)\n\n",
		len(objects), filepath.Base(exe), linked.Stats().Symbols)

	// ANALYZE: open the linked database and let the solver demand-load.
	an, err := cla.AnalyzeFileCtx(context.Background(), exe, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer an.Close()

	// The client's pointer resolves through three modules to the malloc
	// site inside the allocator.
	for _, q := range []string{"name", "alias", "table"} {
		var targets []string
		for _, o := range an.PointsToName(q) {
			targets = append(targets, o.Name())
		}
		fmt.Printf("pts(%-5s) = %v\n", q, targets)
	}

	m := an.Metrics()
	fmt.Printf("\ndemand loading: %d of %d assignments loaded (%.0f%%), %d kept in core\n",
		m.Loaded, m.InFile, 100*float64(m.Loaded)/float64(m.InFile), m.InCore)
}
