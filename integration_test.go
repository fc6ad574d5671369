package cla

// Integration test on a realistic miniature C program: an intrusive linked
// list, a string-keyed hash table with separate chaining, a callback
// registry dispatched through function pointers, and a small arena
// allocator — the pointer idioms legacy C code bases are made of.

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"cla/internal/objfile"
)

const listC = `
#include "mini.h"

struct node *free_list;

struct node *node_new(void) {
	struct node *n;
	if (free_list) {
		n = free_list;
		free_list = n->next;
	} else {
		n = (struct node *)arena_alloc(sizeof(struct node));
	}
	n->next = 0;
	n->value = 0;
	return n;
}

void node_free(struct node *n) {
	n->next = free_list;
	free_list = n;
}

struct node *list_push(struct node *head, int v) {
	struct node *n = node_new();
	n->value = v;
	n->next = head;
	return n;
}

int list_sum(struct node *head) {
	int total = 0;
	struct node *cur;
	for (cur = head; cur; cur = cur->next)
		total += cur->value;
	return total;
}
`

const tableC = `
#include "mini.h"

#define NBUCKETS 8

static struct entry *buckets[NBUCKETS];

static unsigned hash(char *key) {
	unsigned h = 5381;
	while (*key)
		h = (h << 5) + h + *key++;
	return h;
}

void table_put(char *key, struct node *val) {
	unsigned b = hash(key) % NBUCKETS;
	struct entry *e = (struct entry *)arena_alloc(sizeof(struct entry));
	e->key = key;
	e->val = val;
	e->chain = buckets[b];
	buckets[b] = e;
}

struct node *table_get(char *key) {
	unsigned b = hash(key) % NBUCKETS;
	struct entry *e;
	for (e = buckets[b]; e; e = e->chain) {
		if (str_eq(e->key, key))
			return e->val;
	}
	return 0;
}
`

const arenaC = `
#include "mini.h"

static char arena[65536];
static unsigned long arena_used;

char *arena_alloc(unsigned long n) {
	char *p = &arena[0];
	p = p + arena_used;
	arena_used += n;
	return p;
}

int str_eq(char *a, char *b) {
	while (*a && *b && *a == *b) { a++; b++; }
	return *a == *b;
}
`

const eventsC = `
#include "mini.h"

static handler_fn handlers[4];
static int nhandlers;

void on_event(handler_fn h) {
	handlers[nhandlers] = h;
	nhandlers = nhandlers + 1;
}

struct node *fire(struct node *arg) {
	int i;
	struct node *last = 0;
	for (i = 0; i < nhandlers; i++)
		last = handlers[i](arg);
	return last;
}
`

const mainC = `
#include "mini.h"

struct node *audit_log;
struct node *seen;

struct node *track(struct node *n) {
	seen = n;
	return n;
}

struct node *archive(struct node *n) {
	audit_log = list_push(audit_log, n->value);
	return audit_log;
}

int main_(void) {
	struct node *head = 0;
	struct node *fetched, *result;
	head = list_push(head, 1);
	head = list_push(head, 2);
	table_put("head", head);
	fetched = table_get("head");
	on_event(track);
	on_event(archive);
	result = fire(fetched);
	return list_sum(result);
}
`

const miniH = `
#ifndef MINI_H
#define MINI_H
struct node { int value; struct node *next; };
struct entry { char *key; struct node *val; struct entry *chain; };
typedef struct node *(*handler_fn)(struct node *);
char *arena_alloc(unsigned long n);
int str_eq(char *a, char *b);
struct node *node_new(void);
void node_free(struct node *n);
struct node *list_push(struct node *head, int v);
int list_sum(struct node *head);
void table_put(char *key, struct node *val);
struct node *table_get(char *key);
void on_event(handler_fn h);
struct node *fire(struct node *arg);
#endif
`

func buildMini(t *testing.T) (*Database, *Analysis) {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"mini.h": miniH, "list.c": listC, "table.c": tableC,
		"arena.c": arenaC, "events.c": eventsC, "main.c": mainC,
	}
	var dbs []*Database
	for _, name := range []string{"list.c", "table.c", "arena.c", "events.c", "main.c"} {
		if err := writeTemp(dir, "mini.h", miniH); err != nil {
			t.Fatal(err)
		}
		if err := writeTemp(dir, name, files[name]); err != nil {
			t.Fatal(err)
		}
		db, err := CompileFile(dir+"/"+name, &Options{IncludeDirs: []string{dir}})
		if err != nil {
			t.Fatalf("compile %s: %v", name, err)
		}
		dbs = append(dbs, db)
	}
	db, err := Link(dbs...)
	if err != nil {
		t.Fatal(err)
	}
	an, err := db.AnalyzeCtx(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return db, an
}

func ptsSet(an *Analysis, name string) map[string]bool {
	out := map[string]bool{}
	for _, o := range an.PointsToName(name) {
		out[o.Name()] = true
	}
	return out
}

func TestMiniProgramPointsTo(t *testing.T) {
	db, an := buildMini(t)

	// The free list holds nodes; nodes come from the arena via
	// arena_alloc's pointer arithmetic over the static array.
	if got := ptsSet(an, "free_list"); !got["arena"] {
		t.Errorf("pts(free_list) = %v, want arena", got)
	}
	// head flows through list_push's return.
	if got := ptsSet(an, "head"); !got["arena"] {
		t.Errorf("pts(head) = %v", got)
	}
	// The table stores and retrieves the same nodes: fetched aliases head.
	if got := ptsSet(an, "fetched"); !got["arena"] {
		t.Errorf("pts(fetched) = %v", got)
	}
	// entry.val field carries node pointers (field-based naming).
	if got := ptsSet(an, "entry.val"); !got["arena"] {
		t.Errorf("pts(entry.val) = %v", got)
	}
	// Handler dispatch: the function-pointer array holds both handlers...
	if got := ptsSet(an, "handlers"); !got["track"] || !got["archive"] {
		t.Errorf("pts(handlers) = %v", got)
	}
	// ...so the callbacks' parameter receives the fired argument,
	if got := ptsSet(an, "n"); !got["arena"] {
		t.Errorf("pts(n) = %v", got)
	}
	// and the global side channel set by track sees the nodes.
	if got := ptsSet(an, "seen"); !got["arena"] {
		t.Errorf("pts(seen) = %v", got)
	}
	// result merges both handlers' returns: nodes and the audit log.
	if got := ptsSet(an, "result"); !got["arena"] {
		t.Errorf("pts(result) = %v", got)
	}

	// MayAlias sanity: head and fetched alias; key strings do not alias
	// node pointers.
	head := db.Lookup("head")[0]
	fetched := db.Lookup("fetched")[0]
	if !an.MayAlias(head, fetched) {
		t.Error("head and fetched must alias")
	}
}

func TestMiniProgramDependence(t *testing.T) {
	_, an := buildMini(t)
	// Widening node.value must flag everything that carries values out of
	// the list: list_sum's total and its return, main_'s result.
	deps, err := an.DependenceByName("node.value", nil)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, d := range deps {
		names[d.Object.Name()] = true
	}
	for _, want := range []string{"total", "list_sum$ret"} {
		if !names[want] {
			t.Errorf("dependence missing %s (have %v)", want, names)
		}
	}
}

func TestMiniProgramAllSolversSound(t *testing.T) {
	db, _ := buildMini(t)
	base, err := db.AnalyzeCtx(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := ptsSetOf(base, "fetched")
	for _, alg := range []Algorithm{WorklistAndersen, BitVectorAndersen, OneLevelFlow, SteensgaardUnify} {
		an, err := db.AnalyzeCtx(context.Background(), &AnalyzeOptions{Algorithm: alg})
		if err != nil {
			t.Fatalf("alg %d: %v", alg, err)
		}
		got := ptsSetOf(an, "fetched")
		for z := range want {
			if !got[z] {
				t.Errorf("alg %d: pts(fetched) missing %s", alg, z)
			}
		}
	}
}

func ptsSetOf(an *Analysis, name string) map[string]bool {
	out := map[string]bool{}
	for _, o := range an.PointsToName(name) {
		out[o.Name()] = true
	}
	return out
}

func TestMiniProgramStats(t *testing.T) {
	db, an := buildMini(t)
	st := db.Stats()
	if st.Total() < 40 {
		t.Errorf("suspiciously few assignments: %+v", st)
	}
	m := an.Metrics()
	if m.Loaded >= m.InFile {
		t.Errorf("demand loading ineffective on mini program: %+v", m)
	}
	// Chain output format spot check.
	deps, err := an.DependenceByName("node.value", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(deps) == 0 || !strings.Contains(deps[0].Chain, "where node.value/int") {
		t.Errorf("chain format: %+v", deps)
	}
}

func writeTemp(dir, name, content string) error {
	return osWriteFile(dir+"/"+name, content)
}

// TestMiniProgramParallelDeterminism runs the whole pipeline — compile,
// link, analyze — at -j 1 and -j 8 and demands identical output at every
// stage: the linked database must serialize to the same bytes, and every
// solver must report the same points-to set for every object.
func TestMiniProgramParallelDeterminism(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"mini.h": miniH, "list.c": listC, "table.c": tableC,
		"arena.c": arenaC, "events.c": eventsC, "main.c": mainC,
	}
	for name, content := range files {
		if err := writeTemp(dir, name, content); err != nil {
			t.Fatal(err)
		}
	}

	dumpDB := func(db *Database) []byte {
		var buf bytes.Buffer
		if err := objfile.Write(&buf, db.prog); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	db1, err := CompileDirCtx(context.Background(), dir, &Options{IncludeDirs: []string{dir}, Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	db8, err := CompileDirCtx(context.Background(), dir, &Options{IncludeDirs: []string{dir}, Jobs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dumpDB(db1), dumpDB(db8)) {
		t.Fatal("linked database differs between -j 1 and -j 8")
	}

	algorithms := []Algorithm{
		PreTransitive, WorklistAndersen, SteensgaardUnify,
		BitVectorAndersen, OneLevelFlow,
	}
	for _, alg := range algorithms {
		a1, err := db1.AnalyzeCtx(context.Background(), &AnalyzeOptions{Algorithm: alg, Jobs: 1})
		if err != nil {
			t.Fatalf("alg %d -j 1: %v", alg, err)
		}
		a8, err := db8.AnalyzeCtx(context.Background(), &AnalyzeOptions{Algorithm: alg, Jobs: 8})
		if err != nil {
			t.Fatalf("alg %d -j 8: %v", alg, err)
		}
		for _, obj := range db1.Objects() {
			s1 := a1.PointsTo(obj)
			s8 := a8.PointsTo(Object{db: db8, id: obj.id})
			if len(s1) != len(s8) {
				t.Fatalf("alg %d: pts(%s) has %d objects at -j 1 but %d at -j 8",
					alg, obj.Name(), len(s1), len(s8))
			}
			for i := range s1 {
				if s1[i].id != s8[i].id {
					t.Fatalf("alg %d: pts(%s) differs between -j 1 and -j 8",
						alg, obj.Name())
				}
			}
		}
	}
}
