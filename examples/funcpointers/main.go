// Funcpointers demonstrates indirect-call resolution: a dispatch table of
// handler functions is invoked through a function pointer, and the
// analysis links standardized argument/return variables at analysis time
// (Section 4 of the paper), resolving which handlers each call site can
// reach and where their arguments flow.
package main

import (
	"context"
	"fmt"
	"log"

	"cla"
)

const source = `
int buf_a, buf_b, buf_c;

int *handle_read(int *req)  { return req; }
int *handle_write(int *req) { buf_a = *req; return &buf_a; }
int *handle_close(int *req) { return &buf_b; }

int *(*dispatch[3])(int *);
int *(*hot)(int *);

void install(void) {
	dispatch[0] = handle_read;
	dispatch[1] = handle_write;
	dispatch[2] = &handle_close;
}

int *serve(int which) {
	int *result;
	hot = dispatch[which];
	result = hot(&buf_c);
	return result;
}
`

func main() {
	db, err := cla.CompileSource("dispatch.c", source, nil)
	if err != nil {
		log.Fatal(err)
	}
	an, err := db.AnalyzeCtx(context.Background(), nil)
	if err != nil {
		log.Fatal(err)
	}

	show := func(name string) {
		var names []string
		for _, o := range an.PointsToName(name) {
			names = append(names, o.Name())
		}
		fmt.Printf("pts(%-9s) = %v\n", name, names)
	}

	// The dispatch table holds all three handlers; so does the hot slot.
	show("dispatch")
	show("hot")

	// The indirect call hot(&buf_c) binds &buf_c to every reachable
	// handler's parameter...
	show("req")

	// ...and serve's result collects every handler's return value.
	show("result")

	// The analyzer did this by loading each handler's argument/return
	// record when the handler reached pts(hot) — no call graph was built
	// in advance.
	m := an.Metrics()
	fmt.Printf("solved in %d passes, %d edges\n", m.Passes, m.Relations)
}
