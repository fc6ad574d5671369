// Package ctypes resolves the syntactic AST of internal/cc into C types and
// symbol bindings: it builds struct/union/enum layouts, tracks typedefs and
// scopes, types every expression, and resolves identifier uses and member
// accesses to their declarations. The CLA compile phase (internal/frontend)
// consumes its output to name program objects and classify assignments.
//
// The checker is deliberately forgiving: legacy C code bases are full of
// implicit declarations and loose typing, and the downstream analysis is
// flow-insensitive, so unresolvable constructs degrade to `int` rather than
// aborting the compile.
package ctypes

import (
	"fmt"
	"slices"
	"strings"

	"cla/internal/cc"
)

// Kind classifies types.
type Kind uint8

// Type kinds.
const (
	KVoid  Kind = iota
	KInt        // all integer types, including char and enums
	KFloat      // all floating types
	KPtr
	KArray
	KFunc
	KStruct // struct or union
)

// Type is a resolved C type. Types are immutable after checking except for
// struct completion (a forward-declared struct's Info is filled in when the
// definition appears).
type Type struct {
	Kind     Kind
	Name     string // display name for basic types and typedef uses
	Size     int    // size in bytes (0 for incomplete/void/func)
	Signed   bool   // for KInt
	Elem     *Type  // pointee / element / return type
	Len      int64  // array length; -1 when unspecified
	Params   []*Type
	Names    []string // parameter names, parallel to Params (may be empty)
	Variadic bool
	Info     *StructInfo // for KStruct
}

// StructInfo is the shared identity of a struct or union type. Two
// expressions refer to "the same field" exactly when they resolve to the
// same StructInfo and field index — the field-based analysis keys on Tag.
type StructInfo struct {
	Tag      string // source tag, or synthesized "anon@file:line"
	Union    bool
	Fields   []Field
	Complete bool
}

// Field is one struct/union member.
type Field struct {
	Name string
	Type *Type
	Bit  bool // bitfield
}

// FieldByName returns the field and true if present (searching anonymous
// inner structs one level deep, a common C idiom).
func (s *StructInfo) FieldByName(name string) (*Field, bool) {
	for i := range s.Fields {
		if s.Fields[i].Name == name {
			return &s.Fields[i], true
		}
	}
	// Anonymous members: promote inner fields.
	for i := range s.Fields {
		f := &s.Fields[i]
		if f.Name == "" && f.Type != nil && f.Type.Kind == KStruct && f.Type.Info != nil {
			if inner, ok := f.Type.Info.FieldByName(name); ok {
				return inner, true
			}
		}
	}
	return nil, false
}

// Predefined basic types.
var (
	Void       = &Type{Kind: KVoid, Name: "void"}
	Char       = &Type{Kind: KInt, Name: "char", Size: 1, Signed: true}
	UChar      = &Type{Kind: KInt, Name: "unsigned char", Size: 1}
	Short      = &Type{Kind: KInt, Name: "short", Size: 2, Signed: true}
	UShort     = &Type{Kind: KInt, Name: "unsigned short", Size: 2}
	Int        = &Type{Kind: KInt, Name: "int", Size: 4, Signed: true}
	UInt       = &Type{Kind: KInt, Name: "unsigned int", Size: 4}
	Long       = &Type{Kind: KInt, Name: "long", Size: 8, Signed: true}
	ULong      = &Type{Kind: KInt, Name: "unsigned long", Size: 8}
	LongLong   = &Type{Kind: KInt, Name: "long long", Size: 8, Signed: true}
	ULongLong  = &Type{Kind: KInt, Name: "unsigned long long", Size: 8}
	Float      = &Type{Kind: KFloat, Name: "float", Size: 4}
	Double     = &Type{Kind: KFloat, Name: "double", Size: 8}
	LongDouble = &Type{Kind: KFloat, Name: "long double", Size: 16}
)

// PtrTo returns a pointer type to t.
func PtrTo(t *Type) *Type { return &Type{Kind: KPtr, Size: 8, Elem: t} }

// ArrayOf returns an array type of n elements of t (n may be -1).
func ArrayOf(t *Type, n int64) *Type {
	size := 0
	if n >= 0 && t != nil {
		size = int(n) * t.Size
	}
	return &Type{Kind: KArray, Elem: t, Len: n, Size: size}
}

// IsPointerish reports whether values of t hold addresses the points-to
// analysis should track (pointers, arrays, functions used as values).
func (t *Type) IsPointerish() bool {
	if t == nil {
		return false
	}
	switch t.Kind {
	case KPtr, KArray, KFunc:
		return true
	}
	return false
}

// IsStruct reports whether t is a struct or union type.
func (t *Type) IsStruct() bool { return t != nil && t.Kind == KStruct }

// Deref returns the pointee/element type, or nil.
func (t *Type) Deref() *Type {
	if t == nil {
		return nil
	}
	switch t.Kind {
	case KPtr, KArray:
		return t.Elem
	}
	return nil
}

// FuncType returns the function type reached through t (unwrapping one
// pointer level), or nil: it answers "what function does calling a value of
// type t invoke".
func (t *Type) FuncType() *Type {
	if t == nil {
		return nil
	}
	if t.Kind == KFunc {
		return t
	}
	if t.Kind == KPtr && t.Elem != nil && t.Elem.Kind == KFunc {
		return t.Elem
	}
	return nil
}

// String renders t as readable C-like syntax.
func (t *Type) String() string {
	if t == nil {
		return "<nil>"
	}
	switch t.Kind {
	case KVoid:
		return "void"
	case KInt, KFloat:
		if t.Name != "" {
			return t.Name
		}
		return "int"
	case KPtr:
		return t.Elem.String() + "*"
	case KArray:
		if t.Len >= 0 {
			return fmt.Sprintf("%s[%d]", t.Elem, t.Len)
		}
		return t.Elem.String() + "[]"
	case KFunc:
		var ps []string
		for _, p := range t.Params {
			ps = append(ps, p.String())
		}
		if t.Variadic {
			ps = append(ps, "...")
		}
		return fmt.Sprintf("%s(%s)", t.Elem, strings.Join(ps, ","))
	case KStruct:
		kw := "struct"
		if t.Info != nil && t.Info.Union {
			kw = "union"
		}
		tag := ""
		if t.Info != nil {
			tag = t.Info.Tag
		}
		return kw + " " + tag
	}
	return "<bad type>"
}

// Sizeof computes the size of t with natural alignment, 8-byte pointers.
// Incomplete types yield 0, and so does a struct within itself: a struct
// that contains itself by value is ill-formed C, and sizing it must
// still terminate.
func Sizeof(t *Type) int { return sizeOf(t, nil) }

// sizeOf is Sizeof with open holding the structs being sized.
func sizeOf(t *Type, open []*StructInfo) int {
	if t == nil {
		return 0
	}
	switch t.Kind {
	case KVoid, KFunc:
		return 0
	case KInt, KFloat, KPtr:
		return t.Size
	case KArray:
		if t.Len < 0 {
			return 0
		}
		return int(t.Len) * sizeOf(t.Elem, open)
	case KStruct:
		if t.Info == nil || !t.Info.Complete || slices.Contains(open, t.Info) {
			return 0
		}
		open = append(open, t.Info)
		size, align := 0, 1
		for i := range t.Info.Fields {
			fs := sizeOf(t.Info.Fields[i].Type, open)
			fa := alignOf(t.Info.Fields[i].Type, open)
			if fa > align {
				align = fa
			}
			if t.Info.Union {
				if fs > size {
					size = fs
				}
				continue
			}
			size = roundUp(size, fa) + fs
		}
		return roundUp(size, align)
	}
	return 0
}

// Alignof computes natural alignment of t; a struct within itself (see
// Sizeof) aligns to 1.
func Alignof(t *Type) int { return alignOf(t, nil) }

// alignOf is Alignof with open holding the structs being aligned.
func alignOf(t *Type, open []*StructInfo) int {
	if t == nil {
		return 1
	}
	switch t.Kind {
	case KInt, KFloat, KPtr:
		if t.Size > 0 {
			if t.Size >= 8 {
				return 8
			}
			return t.Size
		}
		return 1
	case KArray:
		return alignOf(t.Elem, open)
	case KStruct:
		if t.Info == nil || slices.Contains(open, t.Info) {
			return 1
		}
		open = append(open, t.Info)
		a := 1
		for i := range t.Info.Fields {
			if fa := alignOf(t.Info.Fields[i].Type, open); fa > a {
				a = fa
			}
		}
		return a
	}
	return 1
}

func roundUp(n, align int) int {
	if align <= 1 {
		return n
	}
	return (n + align - 1) / align * align
}

// ObjKind classifies checked declarations.
type ObjKind uint8

// Object kinds.
const (
	ObjVar ObjKind = iota
	ObjFunc
	ObjTypedef
	ObjEnumConst
)

// Object is a declared entity.
type Object struct {
	Name string
	Type *Type
	Pos  cc.Pos
	// FuncName is the enclosing function for locals and parameters.
	FuncName string
	// EnumVal is the value for ObjEnumConst.
	EnumVal int64
	// orig is the shared scope's object this one copies (see CheckFrom).
	orig    *Object
	Kind    ObjKind
	Storage cc.StorageClass
	// Global reports file scope (including extern/static).
	Global bool
	// IsParam marks function parameters.
	IsParam bool
	// Implicit marks objects synthesized for undeclared identifiers.
	Implicit bool
}

// Original returns the object o copies, or o when it is no copy: a copy
// and its original are one declared entity.
func (o *Object) Original() *Object {
	if o.orig != nil {
		return o.orig
	}
	return o
}

func (o *Object) String() string {
	return fmt.Sprintf("%s %s", o.Name, o.Type)
}
