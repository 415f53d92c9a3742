package machine

import "fmt"

// CType identifies a C primitive type whose size and alignment depend on the
// architecture. xml2wire maps XML Schema primitive types onto these, exactly
// as the paper maps xsd types onto the native types a C program would use.
type CType int

// C primitive types.
const (
	CChar CType = iota + 1
	CUChar
	CShort
	CUShort
	CInt
	CUInt
	CLong
	CULong
	CLongLong
	CULongLong
	CFloat
	CDouble
	CPointer // char* and other data pointers (strings, dynamic arrays)
)

var ctypeNames = map[CType]string{
	CChar:      "char",
	CUChar:     "unsigned char",
	CShort:     "short",
	CUShort:    "unsigned short",
	CInt:       "int",
	CUInt:      "unsigned int",
	CLong:      "long",
	CULong:     "unsigned long",
	CLongLong:  "long long",
	CULongLong: "unsigned long long",
	CFloat:     "float",
	CDouble:    "double",
	CPointer:   "pointer",
}

// String returns the C spelling of the type.
func (t CType) String() string {
	if s, ok := ctypeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("CType(%d)", int(t))
}

// Signed reports whether the type is a signed integer type.
func (t CType) Signed() bool {
	switch t {
	case CChar, CShort, CInt, CLong, CLongLong:
		return true
	default:
		return false
	}
}

// Integer reports whether the type is an integer type (signed or unsigned).
func (t CType) Integer() bool {
	switch t {
	case CChar, CUChar, CShort, CUShort, CInt, CUInt, CLong, CULong, CLongLong, CULongLong:
		return true
	default:
		return false
	}
}

// Float reports whether the type is a floating-point type.
func (t CType) Float() bool { return t == CFloat || t == CDouble }

// SizeOf returns sizeof(t) on architecture a, mirroring the paper's use of
// the C sizeof operator during Field population.
func (a *Arch) SizeOf(t CType) int {
	switch t {
	case CChar, CUChar:
		return a.CharSize
	case CShort, CUShort:
		return a.ShortSize
	case CInt, CUInt:
		return a.IntSize
	case CLong, CULong:
		return a.LongSize
	case CLongLong, CULongLong:
		return a.LongLongSize
	case CFloat:
		return a.FloatSize
	case CDouble:
		return a.DoubleSize
	case CPointer:
		return a.PointerSize
	default:
		return 0
	}
}
