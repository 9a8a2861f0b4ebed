package types

import (
	"fmt"
	"strings"

	"fudj/internal/wire"
)

// Field describes one column of a schema.
type Field struct {
	Name string
	Kind Kind
}

// Schema describes the columns of a record stream.
type Schema struct {
	Fields []Field
	byName map[string]int
}

// NewSchema builds a schema. Field names must be unique; duplicates
// indicate a planner bug and panic.
func NewSchema(fields ...Field) *Schema {
	s := &Schema{Fields: fields, byName: make(map[string]int, len(fields))}
	for i, f := range fields {
		if _, dup := s.byName[f.Name]; dup {
			panic(fmt.Sprintf("types: duplicate field %q in schema", f.Name))
		}
		s.byName[f.Name] = i
	}
	return s
}

// Index returns the position of the named field, or -1.
func (s *Schema) Index(name string) int {
	if i, ok := s.byName[name]; ok {
		return i
	}
	return -1
}

// MustIndex returns the position of the named field and panics if the
// field does not exist (a planner bug, not a data error).
func (s *Schema) MustIndex(name string) int {
	i := s.Index(name)
	if i < 0 {
		panic(fmt.Sprintf("types: no field %q in schema %v", name, s))
	}
	return i
}

// Len returns the number of fields.
func (s *Schema) Len() int { return len(s.Fields) }

// Concat returns a new schema with other's fields appended. Name
// collisions are resolved by prefixing the colliding right-side field
// with "r_", mirroring how join outputs qualify duplicate columns.
func (s *Schema) Concat(other *Schema) *Schema {
	fields := make([]Field, 0, len(s.Fields)+len(other.Fields))
	fields = append(fields, s.Fields...)
	taken := make(map[string]bool, len(fields))
	for _, f := range fields {
		taken[f.Name] = true
	}
	for _, f := range other.Fields {
		name := f.Name
		for taken[name] {
			name = "r_" + name
		}
		taken[name] = true
		fields = append(fields, Field{Name: name, Kind: f.Kind})
	}
	return NewSchema(fields...)
}

// Project returns a schema of the given field positions.
func (s *Schema) Project(idx []int) *Schema {
	fields := make([]Field, len(idx))
	for i, j := range idx {
		fields[i] = s.Fields[j]
	}
	return NewSchema(fields...)
}

// String renders the schema as (name:kind, ...).
func (s *Schema) String() string {
	parts := make([]string, len(s.Fields))
	for i, f := range s.Fields {
		parts[i] = f.Name + ":" + f.Kind.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Record is one tuple: a slice of values positionally matching a schema.
type Record []Value

// Clone returns a copy of the record (values are immutable, so a
// shallow copy of the slice suffices).
func (r Record) Clone() Record {
	out := make(Record, len(r))
	copy(out, r)
	return out
}

// String renders the record for display.
func (r Record) String() string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = v.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// MarshalWire encodes the record as a field count plus values.
func (r Record) MarshalWire(e *wire.Encoder) {
	e.Uvarint(uint64(len(r)))
	for _, v := range r {
		v.MarshalWire(e)
	}
}

// DecodeRecord reads one record from d.
func DecodeRecord(d *wire.Decoder) (Record, error) {
	n, err := d.UvarintCount(1) // every value encodes at least a kind byte
	if err != nil {
		return nil, err
	}
	r := make(Record, n)
	for i := range r {
		if r[i], err = DecodeValue(d); err != nil {
			return nil, err
		}
	}
	return r, nil
}
