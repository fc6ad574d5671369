package incr

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"cla/internal/frontend"
	"cla/internal/objfile"
	"cla/internal/prim"
	"cla/internal/srchash"
)

// Store is the on-disk unit cache: one .clo object file plus one
// .manifest per (unit path, #include search path, compile options)
// entry, both named by the srchash of that triple. The manifest's first
// line is the digest of the unit's program as compiled, in hex; the rest
// record the dependency closure the cached compile read — "path\thash"
// per line, sorted — and an entry is valid only while every listed file
// still hashes the same, so the store is keyed by content end to end and
// never needs invalidation logic. The search path is part of the name
// because it decides which file an #include resolves to: a header
// present in two search directories must not be served from the entry
// compiled against the other one. Pipelines with Config.CacheDir and
// clacc -cache share it.
//
// A served unit carries the recorded digest, not one of the decoded
// program: the object file stores a unit's assignments grouped by
// block, so the decoded program lists the same assignments in another
// order, which neither a points-to set nor a checks report depends on.
// The recorded digest keeps a session reopened over the store on the
// generation digest of the session that compiled it, and the pipeline's
// reuse check trusts it as it trusts the object file beside it.
type Store struct {
	dir string
}

// OpenStore creates (if needed) and opens a store directory.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Store{dir: dir}, nil
}

// Compile compiles the unit at path with dirs as the #include search
// path, serving it from the store when the entry's recorded closure
// still matches and writing the entry otherwise.
func (s *Store) Compile(path string, dirs []string, opts frontend.Options) (*prim.Program, error) {
	if u, ok := s.load(path, dirs, opts, newHashCache()); ok {
		return u.prog, nil
	}
	u, err := compileUnit(path, dirs, opts)
	if err != nil {
		return nil, err
	}
	s.save(u, dirs, opts)
	return u.prog, nil
}

func (s *Store) base(unitPath string, dirs []string, opts frontend.Options) string {
	var b strings.Builder
	b.WriteString("unit:" + canon(unitPath) + ";dirs:")
	for _, d := range dirs {
		b.WriteString(canon(d) + "\x00")
	}
	b.WriteString(";opts:" + optsFingerprint(opts))
	return srchash.String(b.String())
}

// load returns the cached unit for unitPath if its manifest's whole
// closure still matches the files on disk (hashed through hc, so shared
// headers are read once per refresh).
func (s *Store) load(unitPath string, dirs []string, opts frontend.Options, hc *hashCache) (*unit, bool) {
	base := s.base(unitPath, dirs, opts)
	mb, err := os.ReadFile(filepath.Join(s.dir, base+".manifest"))
	if err != nil {
		return nil, false
	}
	head, rest, _ := strings.Cut(string(mb), "\n")
	digest, err := strconv.ParseUint(head, 16, 64)
	if err != nil {
		return nil, false
	}
	var deps []dep
	for _, line := range strings.Split(strings.TrimSpace(rest), "\n") {
		path, want, found := strings.Cut(line, "\t")
		if !found || hc.hash(path) != want {
			return nil, false
		}
		deps = append(deps, dep{path: path, hash: want})
	}
	if len(deps) == 0 {
		return nil, false
	}
	r, err := objfile.Open(filepath.Join(s.dir, base+".clo"))
	if err != nil {
		return nil, false
	}
	prog, err := r.Program()
	r.Close()
	if err != nil {
		return nil, false
	}
	return &unit{path: unitPath, prog: prog, deps: deps, digest: digest}, true
}

// save writes u's object and manifest. Failures are swallowed: an
// entry that was never written is a miss, which costs a recompile.
func (s *Store) save(u *unit, dirs []string, opts frontend.Options) {
	base := s.base(u.path, dirs, opts)
	if err := objfile.WriteFile(filepath.Join(s.dir, base+".clo"), u.prog); err != nil {
		return
	}
	var mb strings.Builder
	fmt.Fprintf(&mb, "%016x\n", u.digest)
	for _, d := range u.deps {
		fmt.Fprintf(&mb, "%s\t%s\n", d.path, d.hash)
	}
	os.WriteFile(filepath.Join(s.dir, base+".manifest"), []byte(mb.String()), 0o644)
}
