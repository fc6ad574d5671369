package objfile

import (
	"slices"

	"cla/internal/prim"
)

// The record codec shared with the solved-snapshot format
// (internal/snapfile): the string pool and the symbol, function-record
// and call-site sections. Encoders append a whole section to b, adding
// strings to the pool in record order; decoders check every string
// reference against the resident pool and every symbol reference
// against the symbol count, so a section either decodes into a
// consistent program fragment or fails with a *CorruptError.

const (
	symRecSize  = 24 // name u32, type u32, file u32, funcName u32, line i32, kind u8, flags u8, pad u16
	funcRecSize = 16 // func u32, ret u32, variadic u8, pad×3, nparams u32; then nparams × u32
	callRecSize = 24 // callee u32, file u32, line i32, caller u32, args u32, indirect u8, pad×3
)

// flag bits in symbol records.
const (
	flagFuncPtr  = 1 << 0
	flagInternal = 1 << 1
	flagDefined  = 1 << 2
)

// noSymID is prim.NoSym's encoding.
const noSymID = 0xffffffff

// StringPool interns strings into a string-pool section: each string is
// a u32 length plus its bytes, referenced by byte offset. Offset 0 is
// always the empty string.
type StringPool struct {
	buf  []byte
	offs map[string]uint32
}

// NewStringPool returns a pool holding only the empty string.
func NewStringPool() *StringPool {
	p := &StringPool{offs: map[string]uint32{}}
	p.Add("")
	return p
}

// Add interns s and returns its offset.
func (p *StringPool) Add(s string) uint32 {
	if off, ok := p.offs[s]; ok {
		return off
	}
	off := uint32(len(p.buf))
	p.buf = le.AppendUint32(p.buf, uint32(len(s)))
	p.buf = append(p.buf, s...)
	p.offs[s] = off
	return off
}

// Bytes returns the pool's section bytes.
func (p *StringPool) Bytes() []byte { return p.buf }

// Strings is a resident string-pool section held as one string: the
// conversion from the section's bytes is the one copy a decode makes,
// and every string Str returns is a substring of it. Decoded strings so
// never alias the section's bytes, which a caller may reuse or unmap.
type Strings string

// Str returns the string at offset off, a substring of the pool.
func (s Strings) Str(off uint32) (string, error) {
	o := int64(off)
	if o+4 > int64(len(s)) {
		return "", corrupt("string offset %d out of range", off)
	}
	n := uint32(s[o]) | uint32(s[o+1])<<8 | uint32(s[o+2])<<16 | uint32(s[o+3])<<24
	end := o + 4 + int64(n)
	if end > int64(len(s)) {
		return "", corrupt("string at %d overruns pool", off)
	}
	return string(s[o+4 : end]), nil
}

// EncodeSymID encodes a symbol reference, prim.NoSym as all ones.
func EncodeSymID(id prim.SymID) uint32 {
	if id == prim.NoSym {
		return noSymID
	}
	return uint32(id)
}

// DecodeSymID inverts EncodeSymID.
func DecodeSymID(v uint32) prim.SymID {
	if v == noSymID {
		return prim.NoSym
	}
	return prim.SymID(v)
}

// CheckSym validates a decoded symbol reference against a table of
// numSyms symbols; prim.NoSym is always valid.
func CheckSym(id prim.SymID, numSyms int) error {
	if id != prim.NoSym && (int(id) < 0 || int(id) >= numSyms) {
		return corrupt("symbol id %d out of range", id)
	}
	return nil
}

// AppendSymbols appends a symbol section: u32 count, then one
// fixed-size record per symbol.
func AppendSymbols(b []byte, pool *StringPool, syms []prim.Symbol) []byte {
	b = slices.Grow(b, 4+len(syms)*symRecSize)
	b = le.AppendUint32(b, uint32(len(syms)))
	for i := range syms {
		s := &syms[i]
		b = le.AppendUint32(b, pool.Add(s.Name))
		b = le.AppendUint32(b, pool.Add(s.Type))
		b = le.AppendUint32(b, pool.Add(s.Loc.File))
		b = le.AppendUint32(b, pool.Add(s.FuncName))
		b = le.AppendUint32(b, uint32(s.Loc.Line))
		flags := uint8(0)
		if s.FuncPtr {
			flags |= flagFuncPtr
		}
		if s.Internal {
			flags |= flagInternal
		}
		if s.Defined {
			flags |= flagDefined
		}
		b = append(b, uint8(s.Kind), flags, 0, 0)
	}
	return b
}

// DecodeSymbols decodes a symbol section against the string pool strs.
func DecodeSymbols(b []byte, strs Strings) ([]prim.Symbol, error) {
	if len(b) < 4 {
		return nil, corrupt("symbol section too small")
	}
	n := int(le.Uint32(b))
	if n < 0 || n > len(b) || len(b) != 4+n*symRecSize {
		return nil, corrupt("symbol section size mismatch (%d symbols, %d bytes)", n, len(b))
	}
	syms := make([]prim.Symbol, n)
	for i := range syms {
		rec := b[4+i*symRecSize:]
		var str [4]string
		for j := range str {
			s, err := strs.Str(le.Uint32(rec[4*j:]))
			if err != nil {
				return nil, err
			}
			str[j] = s
		}
		kind := prim.SymKind(rec[20])
		if int(kind) >= prim.NumSymKinds {
			return nil, corrupt("symbol %d has bad kind %d", i, kind)
		}
		flags := rec[21]
		syms[i] = prim.Symbol{
			Name: str[0], Type: str[1], FuncName: str[3],
			Loc:      prim.Loc{File: str[2], Line: int32(le.Uint32(rec[16:]))},
			Kind:     kind,
			FuncPtr:  flags&flagFuncPtr != 0,
			Internal: flags&flagInternal != 0,
			Defined:  flags&flagDefined != 0,
		}
	}
	return syms, nil
}

// AppendFuncs appends a function-record section: u32 count, then per
// record a fixed header followed by its parameter ids.
func AppendFuncs(b []byte, funcs []prim.FuncRecord) []byte {
	b = le.AppendUint32(b, uint32(len(funcs)))
	for _, f := range funcs {
		b = le.AppendUint32(b, EncodeSymID(f.Func))
		b = le.AppendUint32(b, EncodeSymID(f.Ret))
		variadic := uint8(0)
		if f.Variadic {
			variadic = 1
		}
		b = append(b, variadic, 0, 0, 0)
		b = le.AppendUint32(b, uint32(len(f.Params)))
		for _, p := range f.Params {
			b = le.AppendUint32(b, EncodeSymID(p))
		}
	}
	return b
}

// DecodeFuncs decodes a function-record section, checking the function,
// return and every parameter id against numSyms.
func DecodeFuncs(b []byte, numSyms int) ([]prim.FuncRecord, error) {
	if len(b) < 4 {
		return nil, corrupt("func section too small")
	}
	n := int(le.Uint32(b))
	if n < 0 || n > len(b) {
		return nil, corrupt("func count %d out of range", n)
	}
	p := 4
	out := make([]prim.FuncRecord, 0, min(n, 1024))
	for i := 0; i < n; i++ {
		if p+funcRecSize > len(b) {
			return nil, corrupt("func record %d truncated", i)
		}
		rec := prim.FuncRecord{
			Func:     DecodeSymID(le.Uint32(b[p:])),
			Ret:      DecodeSymID(le.Uint32(b[p+4:])),
			Variadic: b[p+8] != 0,
		}
		np := int(le.Uint32(b[p+12:]))
		p += funcRecSize
		if np < 0 || np > len(b) || p+np*4 > len(b) {
			return nil, corrupt("func record %d params truncated", i)
		}
		if np > 0 {
			rec.Params = make([]prim.SymID, np)
		}
		for j := range rec.Params {
			rec.Params[j] = DecodeSymID(le.Uint32(b[p+j*4:]))
			if err := CheckSym(rec.Params[j], numSyms); err != nil {
				return nil, err
			}
		}
		p += np * 4
		if err := CheckSym(rec.Func, numSyms); err != nil {
			return nil, err
		}
		if err := CheckSym(rec.Ret, numSyms); err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
	return out, nil
}

// AppendCalls appends a call-site section: u32 count, then one
// fixed-size record per call site.
func AppendCalls(b []byte, pool *StringPool, calls []prim.CallSite) []byte {
	b = slices.Grow(b, 4+len(calls)*callRecSize)
	b = le.AppendUint32(b, uint32(len(calls)))
	for _, c := range calls {
		b = le.AppendUint32(b, EncodeSymID(c.Callee))
		b = le.AppendUint32(b, pool.Add(c.Loc.File))
		b = le.AppendUint32(b, uint32(c.Loc.Line))
		b = le.AppendUint32(b, pool.Add(c.Caller))
		b = le.AppendUint32(b, uint32(c.Args))
		indirect := uint8(0)
		if c.Indirect {
			indirect = 1
		}
		b = append(b, indirect, 0, 0, 0)
	}
	return b
}

// DecodeCalls decodes a call-site section against the string pool strs,
// checking every callee id against numSyms.
func DecodeCalls(b []byte, strs Strings, numSyms int) ([]prim.CallSite, error) {
	if len(b) < 4 {
		return nil, corrupt("call section too small")
	}
	n := int(le.Uint32(b))
	if n < 0 || n > len(b) || len(b) != 4+n*callRecSize {
		return nil, corrupt("call section size mismatch")
	}
	out := make([]prim.CallSite, n)
	for i := range out {
		rec := b[4+i*callRecSize:]
		c := prim.CallSite{
			Callee:   DecodeSymID(le.Uint32(rec)),
			Indirect: rec[20] != 0,
			Args:     int(le.Uint32(rec[16:])),
		}
		if err := CheckSym(c.Callee, numSyms); err != nil {
			return nil, err
		}
		file, err := strs.Str(le.Uint32(rec[4:]))
		if err != nil {
			return nil, err
		}
		if c.Caller, err = strs.Str(le.Uint32(rec[12:])); err != nil {
			return nil, err
		}
		c.Loc = prim.Loc{File: file, Line: int32(le.Uint32(rec[8:]))}
		out[i] = c
	}
	return out, nil
}
