package model

import (
	"fmt"
	"strconv"
	"strings"
)

// Names is one vocabulary: every value beside its one spelling, in the order
// help texts list them. A type's String, its parser, the "want a|b|c" error
// and the CLI help all read it, so a new value is one row here.
type Names[T any] []struct {
	Name  string
	Value T
}

// Lookup returns the value spelled name.
func (ns Names[T]) Lookup(name string) (v T, ok bool) {
	for _, n := range ns {
		if n.Name == name {
			return n.Value, true
		}
	}
	return v, false
}

// Parse is Lookup with the error every parser of a vocabulary gives:
// unknown <what> "name" (want a|b|c).
func (ns Names[T]) Parse(what, name string) (T, error) {
	v, ok := ns.Lookup(name)
	if !ok {
		return v, fmt.Errorf("unknown %s %q (want %s)", what, name, ns.Join("|"))
	}
	return v, nil
}

// Join lists the spellings in table order with sep between them.
func (ns Names[T]) Join(sep string) string {
	names := make([]string, len(ns))
	for i, n := range ns {
		names[i] = n.Name
	}
	return strings.Join(names, sep)
}

// NameOf returns v's spelling in ns, or what(v) — "mode(9)" — for a value
// the table lacks.
func NameOf[T ~int](ns Names[T], v T, what string) string {
	for _, n := range ns {
		if n.Value == v {
			return n.Name
		}
	}
	return what + "(" + strconv.Itoa(int(v)) + ")"
}
