package wire

// Message kinds. The first byte of every payload identifies the protocol
// message, letting one reactor multiplex discovery, committee consensus and
// decided-value serving over a single authenticated channel, and letting the
// simulator's metrics break traffic down per kind.
const (
	KindGetPDs     byte = 1  // Algorithm 1: ⟨GETPDS⟩
	KindSetPDs     byte = 2  // Algorithm 1: ⟨SETPDS, S_PD⟩
	KindPrePrepare byte = 3  // PBFT pre-prepare
	KindPrepare    byte = 4  // PBFT prepare
	KindCommit     byte = 5  // PBFT commit
	KindViewChange byte = 6  // PBFT view change
	KindNewView    byte = 7  // PBFT new view
	KindDecideNote byte = 8  // PBFT decision notification (commit certificate)
	KindGetDecided byte = 9  // Algorithm 3: ⟨GETDECIDEDVAL⟩
	KindDecided    byte = 10 // Algorithm 3: ⟨DECIDEDVAL, val⟩
)

// kindNames spells every kind for metrics tables.
var kindNames = [...]string{
	KindGetPDs: "GETPDS", KindSetPDs: "SETPDS", KindPrePrepare: "PRE-PREPARE", KindPrepare: "PREPARE",
	KindCommit: "COMMIT", KindViewChange: "VIEW-CHANGE", KindNewView: "NEW-VIEW", KindDecideNote: "DECIDE-NOTE",
	KindGetDecided: "GETDECIDEDVAL", KindDecided: "DECIDEDVAL",
}

// KindName returns a human-readable name for metrics tables.
func KindName(k byte) string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "UNKNOWN"
}
