// Package byz implements Byzantine process behaviors for fault-injection
// experiments. A Byzantine process cannot forge other processes' signatures
// (the authenticated model of Section II-A), but it can stay silent, lie
// about its own participant detector, equivocate — claiming different PDs to
// different peers — or simply behave correctly while being counted against
// the fault threshold (the strategy behind the paper's Fig. 3 narrative).
//
// Each behavior is an rt.Reactor, so the scenario layer can drop one in
// wherever a correct core.Node would go; the automatic placements of
// scenario.AutoByz choose which processes get them during matrix sweeps.
package byz
