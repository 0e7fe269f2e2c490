package chaos

import (
	"fmt"

	"repro/internal/audit"
)

// check audits the fully recovered cluster: the DESIGN.md section 5
// invariants internal/audit implements, then the workload's own content
// checks.  Order matters: the lock-table scan runs before the content
// reads, which themselves acquire (and release) locks.
func (e *engine) check() []audit.Check {
	var files []string
	for _, ps := range e.pairs {
		files = append(files, ps.pathA, ps.pathB)
	}
	files = append(files, e.accounts...)
	return append(audit.Recovered(e.sys),
		audit.SinglePrimary(e.sys, files, e.collector),
		e.checkPairs(),
		e.checkAccounts())
}

// checkPairs: each pair worker's two files must be all-or-nothing with
// identical contents (atomicity across sites), holding a marker the
// worker actually issued (no phantom writes), no older than the last
// commit the client was told succeeded (durability of confirmed
// commits).
func (e *engine) checkPairs() audit.Check {
	c := audit.Check{Name: "atomic-pairs", Detail: fmt.Sprintf("%d pairs", len(e.pairs))}
	p, err := e.sys.NewProcess(1)
	if err != nil {
		c.Violations = append(c.Violations, fmt.Sprintf("audit process: %v", err))
		return c
	}
	for _, ps := range e.pairs {
		ba, errA := audit.ReadCommitted(p, ps.pathA)
		bb, errB := audit.ReadCommitted(p, ps.pathB)
		if errA != nil || errB != nil {
			c.Violations = append(c.Violations,
				fmt.Sprintf("pair %d unreadable: %v / %v", ps.worker, errA, errB))
			continue
		}
		a, b := string(ba), string(bb)
		if a != b {
			c.Violations = append(c.Violations,
				fmt.Sprintf("pair %d torn: %s=%q %s=%q", ps.worker, ps.pathA, a, ps.pathB, b))
			c.Forensics = append(c.Forensics, e.collector.Forensics(ps.pathA)...)
			c.Forensics = append(c.Forensics, e.collector.Forensics(ps.pathB)...)
			continue
		}
		if a == "" {
			if ps.confirmed >= 0 {
				c.Violations = append(c.Violations,
					fmt.Sprintf("pair %d empty but commit %d was confirmed to the client",
						ps.worker, ps.confirmed))
				c.Forensics = append(c.Forensics, e.collector.Forensics(ps.pathA)...)
			}
			continue
		}
		var w, i int
		if _, err := fmt.Sscanf(a, markerFmt, &w, &i); err != nil || w != ps.worker || i >= ps.attempts {
			c.Violations = append(c.Violations,
				fmt.Sprintf("pair %d holds marker %q never issued (attempts %d)",
					ps.worker, a, ps.attempts))
			c.Forensics = append(c.Forensics, e.collector.Forensics(ps.pathA)...)
			continue
		}
		if i < ps.confirmed {
			c.Violations = append(c.Violations,
				fmt.Sprintf("pair %d regressed to attempt %d; attempt %d was confirmed committed",
					ps.worker, i, ps.confirmed))
			c.Forensics = append(c.Forensics, e.collector.Forensics(ps.pathA)...)
		}
	}
	return c
}

// checkAccounts: every transfer conserved the total, so whatever
// serializable subset of them committed, the committed balances must
// still sum to the baseline.  A torn transfer or a lost update shows up
// as a sum drift.
func (e *engine) checkAccounts() audit.Check {
	c := audit.Check{
		Name:   "balance-conservation",
		Detail: fmt.Sprintf("%d accounts, sum %d", len(e.accounts), e.total),
	}
	p, err := e.sys.NewProcess(1)
	if err != nil {
		c.Violations = append(c.Violations, fmt.Sprintf("audit process: %v", err))
		return c
	}
	var sum int64
	for _, path := range e.accounts {
		b, err := audit.ReadCommitted(p, path)
		s := string(b)
		if err != nil {
			c.Violations = append(c.Violations, fmt.Sprintf("%s unreadable: %v", path, err))
			c.Forensics = append(c.Forensics, e.collector.Forensics(path)...)
			continue
		}
		var v int64
		if _, err := fmt.Sscanf(s, "%d", &v); err != nil || len(s) != 8 {
			c.Violations = append(c.Violations,
				fmt.Sprintf("%s: committed balance %q unparseable", path, s))
			c.Forensics = append(c.Forensics, e.collector.Forensics(path)...)
			continue
		}
		if v < 0 {
			c.Violations = append(c.Violations, fmt.Sprintf("%s: negative balance %d", path, v))
			c.Forensics = append(c.Forensics, e.collector.Forensics(path)...)
		}
		sum += v
	}
	if len(c.Violations) == 0 && sum != e.total {
		c.Violations = append(c.Violations,
			fmt.Sprintf("balances sum to %d, want %d (money %s)", sum, e.total,
				map[bool]string{true: "created", false: "destroyed"}[sum > e.total]))
	}
	return c
}
