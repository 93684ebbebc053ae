// Package pbft implements the committee consensus the paper delegates to
// "a traditional consensus protocol, e.g., PBFT [22]": a signed, single-shot
// PBFT with view changes, generalized to the quorum size ⌈(n+f+1)/2⌉ that
// [11] proves necessary for sink committees (n = 3f+1 recovers the classic
// 2f+1). Instances are slot-addressed so multi-decision chains can be built
// on top (see examples/committee).
//
// An Instance keeps one record per view: the value it accepted, the messages
// it sent, its prepare and commit tallies and the view changes it received.
// Prepared and commit certificates are one type, Cert, told apart by the
// signing domain their signatures are checked under: a view change carries a
// prepared one, a DecideNote a commit one.
//
// Every message is signed under a domain-separated namespace and carries its
// slot, so one core.Node can demultiplex traffic for many chained instances
// (pbft.PeekSlot) without decoding whole messages.
package pbft
