package scenario

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/sim"
)

// FaultParams is the serializable chaos axis of a scenario: link-level
// faults (loss, duplication, bounded reorder), a partition schedule and a
// crash/restart churn schedule. Like every other axis it is plain data —
// rendered into CompileKey and cell labels, crossed by matrix sweeps, parsed
// from CLI flags — and resolved against the concrete graph at compile time.
//
// A zero FaultParams means "no injection": the compiled scenario is
// byte-identical to one compiled before this type existed (the fault section
// is appended to CompileKey and labels only when set). When any fault is
// active, the hardened protocol profile (GETPDS backoff, PBFT decide-note
// replies, the capped view-timer shift) arms automatically.
type FaultParams struct {
	// Loss is the per-message drop probability in [0, 1).
	Loss float64
	// Dup is the per-message duplication probability in [0, 1).
	Dup float64
	// Reorder bounds the extra per-message delay (uniform in [0, Reorder])
	// that lets later sends overtake earlier ones.
	Reorder sim.Time
	// Partitions are timed network splits.
	Partitions []PartitionWindow
	// Churn are scheduled crash/restart points.
	Churn []ChurnEvent
}

// PartitionWindow is one timed split. An empty Groups list means "split the
// sorted process list into two halves", resolved at compile time against the
// concrete graph.
type PartitionWindow struct {
	From, Until sim.Time
	Groups      [][]model.ID
}

// ChurnEvent crashes one process at CrashAt and, when RestartAt is non-zero,
// restarts it at RestartAt — with its protocol state persisted, or wiped to
// a fresh node when Wipe is set. RestartAt zero means the process stays down
// for the rest of the run (it is then graded as crash-faulty, not as a
// termination failure).
type ChurnEvent struct {
	ID        model.ID
	CrashAt   sim.Time
	RestartAt sim.Time
	Wipe      bool
}

// Enabled reports whether any fault axis is active.
func (f FaultParams) Enabled() bool {
	return f.Loss > 0 || f.Dup > 0 || f.Reorder > 0 || len(f.Partitions) > 0 || len(f.Churn) > 0
}

// Validate rejects out-of-range fault parameters loudly.
func (f FaultParams) Validate() error {
	if f.Loss < 0 || f.Loss >= 1 {
		return fmt.Errorf("scenario: loss probability %v outside [0,1)", f.Loss)
	}
	if f.Dup < 0 || f.Dup >= 1 {
		return fmt.Errorf("scenario: duplication probability %v outside [0,1)", f.Dup)
	}
	if f.Reorder < 0 {
		return fmt.Errorf("scenario: negative reorder bound %v", f.Reorder)
	}
	for _, w := range f.Partitions {
		if w.From < 0 || w.Until <= w.From {
			return fmt.Errorf("scenario: partition window [%v,%v) is empty or negative", w.From, w.Until)
		}
		seen := model.NewIDSet()
		for _, g := range w.Groups {
			if len(g) == 0 {
				return fmt.Errorf("scenario: partition window [%v,%v) has an empty group", w.From, w.Until)
			}
			for _, id := range g {
				if !seen.Add(id) {
					return fmt.Errorf("scenario: process %v appears in two partition groups", id)
				}
			}
		}
	}
	churned := model.NewIDSet()
	for _, c := range f.Churn {
		if c.CrashAt < 0 {
			return fmt.Errorf("scenario: churn of %v has negative crash time %v", c.ID, c.CrashAt)
		}
		if c.RestartAt != 0 && c.RestartAt <= c.CrashAt {
			return fmt.Errorf("scenario: churn of %v restarts at %v, not after its crash at %v", c.ID, c.RestartAt, c.CrashAt)
		}
		if !churned.Add(c.ID) {
			return fmt.Errorf("scenario: duplicate churn entry for process %v", c.ID)
		}
	}
	return nil
}

// Label renders the canonical compact form ("" when no fault is active):
// the serialization used in CompileKey and cell labels.
func (f FaultParams) Label() string {
	if !f.Enabled() {
		return ""
	}
	var parts []string
	if f.Loss > 0 {
		parts = append(parts, "loss="+strconv.FormatFloat(f.Loss, 'g', -1, 64))
	}
	if f.Dup > 0 {
		parts = append(parts, "dup="+strconv.FormatFloat(f.Dup, 'g', -1, 64))
	}
	if f.Reorder > 0 {
		parts = append(parts, "reorder="+f.Reorder.String())
	}
	for _, w := range f.Partitions {
		groups := "half"
		if len(w.Groups) > 0 {
			var gs []string
			for _, g := range w.Groups {
				ids := make([]string, len(g))
				for i, id := range g {
					ids[i] = strconv.FormatUint(uint64(id), 10)
				}
				gs = append(gs, strings.Join(ids, ","))
			}
			groups = strings.Join(gs, "|")
		}
		parts = append(parts, fmt.Sprintf("part=%v-%v:%s", w.From, w.Until, groups))
	}
	for _, c := range f.Churn {
		s := fmt.Sprintf("churn=%d@%v", uint64(c.ID), c.CrashAt)
		if c.RestartAt > 0 {
			s += fmt.Sprintf("+%v", c.RestartAt)
			if c.Wipe {
				s += ":wipe"
			}
		}
		parts = append(parts, s)
	}
	return strings.Join(parts, ",")
}

// parseSimTime parses a Go duration string ("500ms", "1.5s") into virtual
// time.
func parseSimTime(s string) (sim.Time, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("scenario: bad duration %q: %w", s, err)
	}
	return sim.Time(d.Nanoseconds()), nil
}

// ParsePartition parses a -partition flag value: "FROM-UNTIL" (auto split
// into halves) or "FROM-UNTIL:1,2|3,4" with explicit groups. Durations use
// Go syntax ("500ms-1.5s").
func ParsePartition(s string) (PartitionWindow, error) {
	var w PartitionWindow
	span, groups, hasGroups := strings.Cut(s, ":")
	from, until, ok := strings.Cut(span, "-")
	if !ok {
		return w, fmt.Errorf("scenario: bad partition %q (want FROM-UNTIL[:g|g])", s)
	}
	var err error
	if w.From, err = parseSimTime(from); err != nil {
		return w, err
	}
	if w.Until, err = parseSimTime(until); err != nil {
		return w, err
	}
	if hasGroups && groups != "half" {
		for _, g := range strings.Split(groups, "|") {
			var ids []model.ID
			for _, part := range strings.Split(g, ",") {
				n, err := strconv.ParseUint(strings.TrimSpace(part), 10, 64)
				if err != nil {
					return w, fmt.Errorf("scenario: bad partition group %q in %q", g, s)
				}
				ids = append(ids, model.ID(n))
			}
			w.Groups = append(w.Groups, ids)
		}
	}
	return w, nil
}

// ParseChurn parses a -churn flag value: "ID@CRASH" (down forever),
// "ID@CRASH+RESTART" (persisted restart) or "ID@CRASH+RESTART:wipe".
func ParseChurn(s string) (ChurnEvent, error) {
	var c ChurnEvent
	idPart, times, ok := strings.Cut(s, "@")
	if !ok {
		return c, fmt.Errorf("scenario: bad churn %q (want ID@CRASH[+RESTART[:wipe]])", s)
	}
	n, err := strconv.ParseUint(strings.TrimSpace(idPart), 10, 64)
	if err != nil {
		return c, fmt.Errorf("scenario: bad churn process id in %q", s)
	}
	c.ID = model.ID(n)
	crash, rest, hasRestart := strings.Cut(times, "+")
	if c.CrashAt, err = parseSimTime(crash); err != nil {
		return c, err
	}
	if hasRestart {
		restart, flag, hasFlag := strings.Cut(rest, ":")
		if c.RestartAt, err = parseSimTime(restart); err != nil {
			return c, err
		}
		if hasFlag {
			if flag != "wipe" {
				return c, fmt.Errorf("scenario: bad churn flag %q in %q (want wipe)", flag, s)
			}
			c.Wipe = true
		}
	}
	return c, nil
}

// resolvePartitions turns the serialized windows into the engine's concrete
// schedule: explicit groups become IDSets; an empty Groups list splits the
// sorted process list into two halves.
func resolvePartitions(windows []PartitionWindow, ids []model.ID) sim.PartitionSchedule {
	if len(windows) == 0 {
		return nil
	}
	sched := make(sim.PartitionSchedule, 0, len(windows))
	sorted := append([]model.ID(nil), ids...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, w := range windows {
		sw := sim.PartitionWindow{From: w.From, Until: w.Until}
		if len(w.Groups) == 0 {
			half := len(sorted) / 2
			sw.Groups = []model.IDSet{model.NewIDSet(sorted[:half]...), model.NewIDSet(sorted[half:]...)}
		} else {
			for _, g := range w.Groups {
				sw.Groups = append(sw.Groups, model.NewIDSet(g...))
			}
		}
		sched = append(sched, sw)
	}
	return sched
}
