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

// Store is the on-disk cache of the pipeline's first and fourth reuse
// layers: the units, and each workspace's latest solved generation as a
// .snap file (see generation.go). A unit entry is one .clo object file
// plus one .manifest per (unit path, #include search path, compile
// options), both named by the srchash of that triple. The manifest's first
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
// reuse check trusts it as it trusts the object file beside it; so does
// an Open served from the saved generation, which reads no object file
// at all.
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
	if _, ok := s.lookup(path, dirs, opts, newHashCache()); ok {
		if prog, err := s.program(path, dirs, opts); err == nil {
			return prog, nil
		}
	}
	u, err := compileUnit(path, dirs, opts, nil, nil)
	if err != nil {
		return nil, err
	}
	s.save(u, dirs, opts, false)
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

// lookup returns the cached unit for unitPath if its manifest's whole
// closure still matches the files on disk (hashed through hc, so shared
// headers are read once per refresh). It reads no object file: the
// unit's program is nil, and program decodes it when a link needs it.
func (s *Store) lookup(unitPath string, dirs []string, opts frontend.Options, hc *hashCache) (*unit, bool) {
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
	return &unit{path: unitPath, deps: deps, digest: digest}, true
}

// program decodes the object file of unitPath's entry.
func (s *Store) program(unitPath string, dirs []string, opts frontend.Options) (*prim.Program, error) {
	return objfile.ReadFile(filepath.Join(s.dir, s.base(unitPath, dirs, opts)+".clo"))
}

// save writes u's object and manifest. A unit that kept its previous
// compile (cutOff) rewrites only the manifest when the entry already
// records u's digest, since its object file then holds u's program.
// Failures are swallowed: an entry that was never written is a miss,
// which costs a recompile.
func (s *Store) save(u *unit, dirs []string, opts frontend.Options, cutOff bool) {
	base := s.base(u.path, dirs, opts)
	if !cutOff || s.recorded(base) != u.digest {
		if err := objfile.WriteFile(filepath.Join(s.dir, base+".clo"), u.prog); err != nil {
			return
		}
	}
	var mb strings.Builder
	fmt.Fprintf(&mb, "%016x\n", u.digest)
	for _, d := range u.deps {
		fmt.Fprintf(&mb, "%s\t%s\n", d.path, d.hash)
	}
	os.WriteFile(filepath.Join(s.dir, base+".manifest"), []byte(mb.String()), 0o644)
}

// recorded returns the program digest the manifest named base records,
// 0 for none.
func (s *Store) recorded(base string) uint64 {
	mb, err := os.ReadFile(filepath.Join(s.dir, base+".manifest"))
	if err != nil {
		return 0
	}
	head, _, _ := strings.Cut(string(mb), "\n")
	digest, _ := strconv.ParseUint(head, 16, 64)
	return digest
}
