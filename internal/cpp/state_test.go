package cpp

import "testing"

// stateAfter preprocesses src and returns the preprocessor.
func stateAfter(t *testing.T, src string) *Preprocessor {
	t.Helper()
	p := New(MapLoader{})
	if _, err := p.Preprocess("s.c", src); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestStateKey: equal definitions give equal keys wherever they were
// made; any difference in a macro's kind, parameters, body, spacing or
// in the #pragma once set gives another key.
func TestStateKey(t *testing.T) {
	base := stateAfter(t, "#define A(x) x + 1\n#define B 2\n").StateKey()
	if got := stateAfter(t, "\n\n#define B 2\n#define A(x) x + 1\n").StateKey(); got != base {
		t.Errorf("same definitions on other lines: key differs")
	}
	for _, src := range []string{
		"#define A (x) x + 1\n#define B 2\n",
		"#define A(x) x+1\n#define B 2\n",
		"#define A(x, y) x + 1\n#define B 2\n",
		"#define A(...) x + 1\n#define B 2\n",
		"#define A(x) x + 1\n#define B 3\n",
		"#define A(x) x + 1\n#define B 2\n#define C\n",
		"#define A(x) x + 1\n",
		"#define A(x) x + 1\n#define B 2\n#pragma once\n",
		"#define A(x) \"x + 1\"\n#define B 2\n",
	} {
		if stateAfter(t, src).StateKey() == base {
			t.Errorf("%q: same key as the base definitions", src)
		}
	}
}

// TestSetState: a preprocessor given another's state expands as that
// one does, and later definitions in either leave the other alone.
func TestSetState(t *testing.T) {
	src := stateAfter(t, "#define N 7\n#pragma once\n")
	st := src.State()
	p := New(MapLoader{})
	p.SetState(st)
	if p.StateKey() != src.StateKey() {
		t.Fatal("keys differ after SetState")
	}
	toks, err := p.Preprocess("u.c", "#define M N\nint x = M;\n")
	if err != nil || len(toks) < 4 || toks[3].Text != "7" {
		t.Fatalf("expanded to %v, %v", toks, err)
	}
	if _, ok := st.macros["M"]; ok {
		t.Fatal("a later #define changed the captured state")
	}
}
