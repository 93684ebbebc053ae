// Package discovery implements Algorithm 1 of the paper: the knowledge-
// expansion protocol by which every process periodically asks the processes
// it knows for the signed participant detectors (PDs) they have collected.
// Signatures make relayed PDs trustworthy: a Byzantine process can lie about
// its own PD (the Sink/Core algorithms tolerate that) but cannot forge or
// alter the PD of any correct process.
//
// The module maintains the kosr.View (S_known and S_PD) that the committee
// search reads, and calls its onUpdate hook whenever knowledge grows so the
// search can re-run exactly when the wait-until conditions of Algorithms 2
// and 4 may newly hold.
package discovery
