package driver

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cla/internal/frontend"
	"cla/internal/objfile"
	"cla/internal/prim"
)

func writeFiles(t *testing.T, files map[string]string) {
	t.Helper()
	for path, content := range files {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestUnits: a directory's units are its .c files, sorted, and not
// those of its subdirectories; an empty or missing directory is an
// error naming it.
func TestUnits(t *testing.T) {
	dir := t.TempDir()
	writeFiles(t, map[string]string{
		filepath.Join(dir, "b.c"):          "int b;\n",
		filepath.Join(dir, "a.c"):          "int a;\n",
		filepath.Join(dir, "c.c"):          "int c;\n",
		filepath.Join(dir, "defs.h"):       "extern int a;\n",
		filepath.Join(dir, "notes.txt"):    "not C\n",
		filepath.Join(dir, "sub", "d.c"):   "int d;\n",
		filepath.Join(dir, "dir.c", "e.c"): "int e;\n",
	})
	got, err := Units(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{filepath.Join(dir, "a.c"), filepath.Join(dir, "b.c"), filepath.Join(dir, "c.c")}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Units = %v, want %v", got, want)
	}

	empty := filepath.Join(dir, "sub", "empty")
	if err := os.Mkdir(empty, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{empty, filepath.Join(dir, "missing")} {
		units, err := Units(bad)
		if err == nil {
			t.Errorf("Units(%s) = %v, want an error", bad, units)
		} else if !strings.Contains(err.Error(), bad) {
			t.Errorf("Units(%s) error %q does not name the directory", bad, err)
		}
	}
}

func TestSearchPath(t *testing.T) {
	units := []string{"src/z/b.c", "src/a.c", "src/z/c.c", "a.c"}
	got := SearchPath(units, []string{"inc", "src"})
	want := []string{".", "src", "src/z", "inc", "src"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("SearchPath = %v, want %v", got, want)
	}
}

// TestResolveInputs classifies each argument form, and compiles a
// directory and the list of its units to the same program.
func TestResolveInputs(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "src")
	writeFiles(t, map[string]string{
		filepath.Join(src, "defs.h"): "extern int g;\nextern int *p;\n",
		filepath.Join(src, "a.c"):    "#include <defs.h>\nint g;\nint *p;\nvoid f(void) { p = &g; }\n",
		filepath.Join(src, "b.c"):    "#include <defs.h>\nint *q;\nvoid h(void) { q = p; }\n",
	})
	units := []string{filepath.Join(src, "a.c"), filepath.Join(src, "b.c")}

	fromDir, err := ResolveInputs([]string{src}, []string{"inc"})
	if err != nil {
		t.Fatal(err)
	}
	if want := (Inputs{Units: units, Search: []string{src, "inc"}}); !reflect.DeepEqual(fromDir, want) {
		t.Errorf("directory = %+v, want %+v", fromDir, want)
	}
	fromList, err := ResolveInputs(units, []string{"inc"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromList, fromDir) {
		t.Errorf("list = %+v, want %+v", fromList, fromDir)
	}

	var objs [2][]byte
	for i, in := range []Inputs{fromDir, fromList} {
		prog, err := in.Program(context.Background(), frontend.Options{}, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "prog.cla")
		if err := objfile.WriteFile(path, prog); err != nil {
			t.Fatal(err)
		}
		if objs[i], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	if string(objs[0]) != string(objs[1]) {
		t.Error("a directory and the list of its units compile differently")
	}

	db := filepath.Join(dir, "prog.cla")
	in, err := ResolveInputs([]string{db}, nil)
	if err != nil || !reflect.DeepEqual(in, Inputs{Database: db}) {
		t.Fatalf("database = %+v, %v", in, err)
	}
	prog, err := in.Program(context.Background(), frontend.Options{}, 1, nil)
	if err != nil {
		t.Fatalf("database program: %v", err)
	}
	if prog.SymIDByName("q") == prim.NoSym {
		t.Error("database program lacks q")
	}

	for _, bad := range [][]string{
		{filepath.Join(dir, "missing.c")},
		{filepath.Join(dir, "missing")},
		{units[0], db},
		{src, units[0]},
	} {
		if in, err := ResolveInputs(bad, nil); err == nil {
			t.Errorf("ResolveInputs(%v) = %+v, want an error", bad, in)
		}
	}
}
