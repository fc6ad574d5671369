package driver

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"cla/internal/cpp"
	"cla/internal/frontend"
	"cla/internal/objfile"
	"cla/internal/obs"
	"cla/internal/prim"
)

// Units returns a directory's translation units: the .c files directly
// under dir, sorted. A directory that cannot be read (an *fs.PathError)
// or holds no .c file is an error naming it. The tools and the
// incremental pipeline all list a directory through Units.
func Units(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir) // sorted by name
	if err != nil {
		return nil, err
	}
	var units []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".c" {
			units = append(units, filepath.Join(dir, e.Name()))
		}
	}
	if len(units) == 0 {
		return nil, fmt.Errorf("no .c files in %s", dir)
	}
	return units, nil
}

// SearchPath is the #include search path of units: their directories,
// sorted and without duplicates, then includes.
func SearchPath(units, includes []string) []string {
	var dirs []string
	for _, u := range units {
		dirs = append(dirs, filepath.Dir(u))
	}
	slices.Sort(dirs)
	return append(slices.Compact(dirs), includes...)
}

// Defines maps -D arguments to predefined macros: NAME=VALUE defines NAME
// as VALUE, and a bare NAME defines it as 1, as in a C compiler.
func Defines(args []string) map[string]string {
	defs := map[string]string{}
	for _, d := range args {
		name, val, found := strings.Cut(strings.TrimSpace(d), "=")
		if !found {
			val = "1"
		}
		defs[name] = val
	}
	return defs
}

// Inputs is what a tool's arguments name: units to compile under their
// search path (SearchPath), or one database file.
type Inputs struct {
	Units, Search []string
	Database      string
}

// ResolveInputs classifies a tool's arguments: a single directory names
// its Units, a list of .c files names those units, and any other single
// file names a database. includes are the -I directories.
func ResolveInputs(args, includes []string) (Inputs, error) {
	if len(args) == 1 {
		info, err := os.Stat(args[0])
		if err != nil {
			return Inputs{}, err
		}
		if info.IsDir() {
			units, err := Units(args[0])
			if err != nil {
				return Inputs{}, err
			}
			return Inputs{Units: units, Search: SearchPath(units, includes)}, nil
		}
		if filepath.Ext(args[0]) != ".c" {
			return Inputs{Database: args[0]}, nil
		}
	}
	for _, a := range args {
		if filepath.Ext(a) != ".c" {
			return Inputs{}, fmt.Errorf("%s: expected .c files (or a single directory or database)", a)
		}
	}
	return Inputs{Units: args, Search: SearchPath(args, includes)}, nil
}

// Program compiles and links the units through Compile, or reads the
// whole database inside a "read" span.
func (in Inputs) Program(ctx context.Context, opts frontend.Options, jobs int, o *obs.Observer) (*prim.Program, error) {
	if in.Database == "" {
		return Compile(ctx, in.Units, cpp.OSLoader{Dirs: in.Search}, opts, jobs, o)
	}
	sp := o.Start("read")
	defer sp.End()
	return objfile.ReadFile(in.Database)
}
