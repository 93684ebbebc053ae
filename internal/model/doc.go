// Package model defines the basic vocabulary shared by every layer of the
// BFT-CUP / BFT-CUPFT stack: process identifiers, proposal values, an ordered
// set of identifiers with deterministic iteration, and a dense index over them.
//
// Determinism matters: the discrete-event simulator must produce identical
// traces for identical seeds, so nothing in this package ever iterates over a
// Go map when order can be observed — IDSet.Sorted is the only sanctioned way
// to walk a set where ordering is visible.
package model
