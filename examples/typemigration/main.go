// Typemigration demonstrates the tool the paper was built for (Section 2):
// given a legacy code base and a proposed type change — here widening a
// sequence counter from short to int — find every object whose type must
// change with it, ranked by how strongly each dependence chain preserves
// the value's range, and show how a user prunes noise with non-targets.
package main

import (
	"context"
	"fmt"
	"log"

	"cla"
)

// A miniature "legacy telecom" code base in three translation units.
// seq_next's counter must grow from short to int; anything that stores a
// value derived from it risks silent narrowing.
const protoC = `
short current_seq;                 /* the migration target */
short last_acked;
short window[8];

struct packet { short seq; short len; char *payload; };
struct stats { long total; short worst_seq; };

struct stats g_stats;

short seq_next(void) {
	current_seq = current_seq + 1;
	return current_seq;
}

void send_packet(struct packet *p, char *data) {
	p->seq = seq_next();
	p->payload = data;
	p->len = 0;
}

void ack(short s) {
	last_acked = s;
	window[0] = s;
}
`

const statsC = `
struct packet { short seq; short len; char *payload; };
struct stats { long total; short worst_seq; };
extern struct stats g_stats;

void record(struct packet *p) {
	short s;
	s = p->seq;
	if (s > g_stats.worst_seq)
		g_stats.worst_seq = s;
	g_stats.total = g_stats.total + 1;
}
`

const uiC = `
extern short current_seq;
short display_seq;
short blink_phase;

void refresh(void) {
	display_seq = current_seq;
	blink_phase = !current_seq;   /* no range dependence */
}
`

func main() {
	units := map[string]string{"proto.c": protoC, "stats.c": statsC, "ui.c": uiC}
	var dbs []*cla.Database
	for _, name := range []string{"proto.c", "stats.c", "ui.c"} {
		db, err := cla.CompileSource(name, units[name], nil)
		if err != nil {
			log.Fatal(err)
		}
		dbs = append(dbs, db)
	}
	linked, err := cla.Link(dbs...)
	if err != nil {
		log.Fatal(err)
	}
	an, err := linked.AnalyzeCtx(context.Background(), nil)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("=== proposed change: short current_seq -> int ===")
	deps, err := an.DependenceByName("current_seq", nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d dependent objects:\n", len(deps))
	for _, d := range deps {
		class := "weak  "
		if d.Strong {
			class = "strong"
		}
		fmt.Printf("  [%s d=%d] %s\n", class, d.Distance, d.Chain)
	}

	// The paper's non-target mechanism: the user knows g_stats.total is a
	// long accumulator that never narrows; cutting the stats sink focuses
	// the report.
	fmt.Println("\n=== with non-target stats.worst_seq ===")
	var nonTargets []cla.Object
	for _, o := range linked.Lookup("stats.worst_seq") {
		nonTargets = append(nonTargets, o)
	}
	deps, err = an.DependenceByName("current_seq", &cla.DependOptions{NonTargets: nonTargets})
	if err != nil {
		log.Fatal(err)
	}
	for _, d := range deps {
		fmt.Printf("  %s/%s\n", d.Object.Name(), d.Object.Type())
	}
}
