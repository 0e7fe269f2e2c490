// Package audit checks the DESIGN.md section 5 recovery invariants on a
// fully recovered cluster: every transaction resolved everywhere (no
// site left in doubt, logs reclaimed once phase two completes), no
// residual or conflicting transaction locks, every volume's page
// allocator in agreement with its inodes, and each file held by exactly
// one primary copy.  The randomized fault harness (internal/chaos) and
// the crash-point enumerator (internal/crashprobe) both audit through
// this package, so a fix to a check covers both.
package audit

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/lockmgr"
	"repro/internal/shadow"
	"repro/internal/simnet"
	"repro/internal/tpc"
	"repro/internal/trace"
)

// Check is one invariant's verdict.
type Check struct {
	Name       string   // e.g. "resolution"
	Detail     string   // deterministic scope summary, e.g. "3 sites"
	Violations []string // empty = PASS
	// Forensics holds, for each violation, the tail of the causal event
	// trace touching the offending object: what the transactions that
	// handled it did, fault injections included.  Empty when the check
	// passed or the run was untraced.
	Forensics []string
}

// Recovered runs the cluster-wide checks - resolution, lock table,
// allocator - in that order.  Run it before any content read: reads
// take and release locks of their own.
func Recovered(sys *core.System) []Check {
	return []Check{Resolution(sys), LockTable(sys), Allocator(sys)}
}

// Resolution: after crash-restart recovery plus resolution nothing may
// remain in doubt - no prepared participants awaiting an outcome, no
// coordinator with phase two outstanding - and every volume log must be
// readable (no torn record survives recovery) and free of residue
// (section 4.4: prepare and status records are reclaimed once the
// transaction completes everywhere).
func Resolution(sys *core.System) Check {
	cl := sys.Cluster()
	sites := cl.Sites()
	c := Check{Name: "resolution", Detail: fmt.Sprintf("%d sites", len(sites))}
	for _, id := range sites {
		s := cl.Site(id)
		if n := s.InDoubtCount(); n != 0 {
			c.Violations = append(c.Violations,
				fmt.Sprintf("site %d: %d transactions still in doubt", id, n))
		}
		if coord, err := s.Coordinator(); err == nil {
			if n := coord.PendingCount(); n != 0 {
				c.Violations = append(c.Violations,
					fmt.Sprintf("site %d: coordinator has %d transactions pending phase two", id, n))
			}
		}
		for _, name := range s.Volumes() {
			vol := s.Volume(name)
			if _, err := vol.Log().Records(); err != nil {
				c.Violations = append(c.Violations,
					fmt.Sprintf("site %d %s: torn log record survived recovery: %v", id, name, err))
			}
			if recs, err := tpc.ReadPrepareRecords(vol); err != nil {
				c.Violations = append(c.Violations,
					fmt.Sprintf("site %d %s: reading prepare records: %v", id, name, err))
			} else if len(recs) != 0 {
				c.Violations = append(c.Violations,
					fmt.Sprintf("site %d %s: %d residual prepare records", id, name, len(recs)))
			}
			if keys := vol.Log().Keys(); len(keys) != 0 {
				c.Violations = append(c.Violations,
					fmt.Sprintf("site %d %s: log not reclaimed: %v", id, name, keys))
			}
		}
	}
	return c
}

// LockTable: the lock tables must be conflict-free (no two overlapping
// granted ranges from different groups unless both are shared, section
// 3.2) - and with every transaction resolved they must in fact be
// empty, since retained locks exist only for live or in-doubt
// transactions (section 3.3).
func LockTable(sys *core.System) Check {
	cl := sys.Cluster()
	sites := cl.Sites()
	c := Check{Name: "lock-table", Detail: fmt.Sprintf("%d sites", len(sites))}
	for _, id := range sites {
		lm := cl.Site(id).Locks()
		for _, fid := range lm.Files() {
			fl := lm.Lookup(fid)
			if fl == nil {
				continue
			}
			// Lease entries are site grants, not transaction locks: they
			// hold no uncommitted state (a conflicting request revokes
			// them), legitimately survive commits, and by design overlap
			// the materialized locks of their own site's transactions -
			// so both scans skip them.
			var entries []lockmgr.EntryInfo
			for _, en := range fl.Entries() {
				if !en.Leased {
					entries = append(entries, en)
				}
			}
			for _, en := range entries {
				c.Violations = append(c.Violations,
					fmt.Sprintf("site %d %s: residual %v lock %s [%d,%d) after recovery",
						id, fid, en.Mode, en.Holder.Group(), en.Off, en.Off+en.Len))
			}
			for i := 0; i < len(entries); i++ {
				for j := i + 1; j < len(entries); j++ {
					a, b := entries[i], entries[j]
					if a.Holder.Group() == b.Holder.Group() {
						continue
					}
					if a.Mode != lockmgr.ModeExclusive && b.Mode != lockmgr.ModeExclusive {
						continue
					}
					if a.Off < b.Off+b.Len && b.Off < a.Off+a.Len {
						c.Violations = append(c.Violations,
							fmt.Sprintf("site %d %s: conflicting grants %s %v [%d,%d) vs %s %v [%d,%d)",
								id, fid,
								a.Holder.Group(), a.Mode, a.Off, a.Off+a.Len,
								b.Holder.Group(), b.Mode, b.Off, b.Off+b.Len))
					}
				}
			}
		}
	}
	return c
}

// Allocator: every volume's page allocator must agree with its inodes -
// each referenced page in range and allocated, no page referenced twice,
// and no allocated page unreferenced (a commit or recovery that leaked
// pages would strand them forever).  Every volume is scanned, hosted
// copies a placement move created included; the detail counts one
// mounted volume per site, so it depends on the configuration alone.
func Allocator(sys *core.System) Check {
	cl := sys.Cluster()
	sites := cl.Sites()
	c := Check{Name: "allocator", Detail: fmt.Sprintf("%d volumes", len(sites))}
	for _, id := range sites {
		s := cl.Site(id)
		for _, name := range s.Volumes() {
			vol := s.Volume(name)
			geo := vol.Geometry()
			owner := inodeNames(vol)
			ownerName := func(ino int) string {
				if n, ok := owner[ino]; ok {
					return n
				}
				return "?"
			}
			ref := map[int]int{} // physical page -> referencing inode
			for _, ino := range vol.Inodes() {
				node, err := vol.ReadInode(ino)
				if err != nil {
					c.Violations = append(c.Violations,
						fmt.Sprintf("site %d %s ino %d (%s): unreadable after recovery: %v",
							id, name, ino, ownerName(ino), err))
					continue
				}
				pages := node.Pages
				if node.Indirect >= 0 {
					pages = append(append([]int{}, pages...), node.Indirect)
				}
				for _, pg := range pages {
					if pg < 0 {
						continue // hole
					}
					if pg < geo.DataStart || pg >= geo.NumPages {
						c.Violations = append(c.Violations,
							fmt.Sprintf("site %d %s ino %d (%s): page %d outside data region [%d,%d)",
								id, name, ino, ownerName(ino), pg, geo.DataStart, geo.NumPages))
						continue
					}
					if prev, dup := ref[pg]; dup {
						c.Violations = append(c.Violations,
							fmt.Sprintf("site %d %s: page %d referenced by both ino %d (%s) and ino %d (%s)",
								id, name, pg, prev, ownerName(prev), ino, ownerName(ino)))
					}
					ref[pg] = ino
					if !vol.PageAllocated(pg) {
						c.Violations = append(c.Violations,
							fmt.Sprintf("site %d %s ino %d (%s): references free page %d",
								id, name, ino, ownerName(ino), pg))
					}
				}
			}
			for pg := geo.DataStart; pg < geo.NumPages; pg++ {
				if _, ok := ref[pg]; !ok && vol.PageAllocated(pg) {
					c.Violations = append(c.Violations,
						fmt.Sprintf("site %d %s: page %d allocated but referenced by no inode", id, name, pg))
				}
			}
		}
	}
	return c
}

// SinglePrimary: whatever ownership moves placement performed - and
// wherever a crash or partition cut one short - each "vol/name" path
// must end with exactly one primary copy after recovery, held by the
// site the catalog names.  A shipped copy whose home flip never
// committed must be purged on restart; two primaries would let sites
// serve divergent committed bytes.  With placement off this degenerates
// to "every file still lives at its mount site".  Violations carry the
// forensics col holds for the offending path (none when col is nil).
func SinglePrimary(sys *core.System, paths []string, col *trace.Collector) Check {
	c := Check{Name: "single-primary", Detail: fmt.Sprintf("%d files", len(paths))}
	cl := sys.Cluster()
	for _, path := range paths {
		vol, name, ok := strings.Cut(path, "/")
		if !ok {
			c.Violations = append(c.Violations, fmt.Sprintf("%s: path has no volume component", path))
			continue
		}
		home, err := cl.StorageSite(path)
		if err != nil {
			c.Violations = append(c.Violations, fmt.Sprintf("%s: no storage site after recovery: %v", path, err))
			c.Forensics = append(c.Forensics, col.Forensics(path)...)
			continue
		}
		var holders []simnet.SiteID
		for _, id := range cl.Sites() {
			has, err := cl.Site(id).HasLocalFile(vol, name)
			if err != nil {
				c.Violations = append(c.Violations,
					fmt.Sprintf("%s: scanning site %d for a local copy: %v", path, id, err))
				continue
			}
			if has {
				holders = append(holders, id)
			}
		}
		if len(holders) != 1 || holders[0] != home {
			c.Violations = append(c.Violations,
				fmt.Sprintf("%s: primary copies at sites %v, catalog says %v", path, holders, home))
			c.Forensics = append(c.Forensics, col.Forensics(path)...)
		}
	}
	return c
}

// ReadCommitted returns a file's committed contents (nil when empty)
// through a non-transaction read by p.
func ReadCommitted(p *core.Process, path string) ([]byte, error) {
	f, err := p.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() //nolint:errcheck // read-only handle
	cs, err := f.CommittedSize()
	if err != nil {
		return nil, err
	}
	if cs == 0 {
		return nil, nil
	}
	buf := make([]byte, cs)
	if _, err := f.ReadAt(buf, 0); err != nil {
		return nil, err
	}
	return buf, nil
}

// inodeNames maps a volume's inodes to the directory names referencing
// them, so an allocator violation says which files collided.  Inode 0 is
// the directory itself; unmapped inodes render as "?".
func inodeNames(vol *fs.Volume) map[int]string {
	names := map[int]string{0: "<directory>"}
	f, err := shadow.Open(vol, 0)
	if err != nil {
		return names
	}
	buf := make([]byte, f.CommittedSize())
	if len(buf) == 0 {
		return names
	}
	if _, err := f.ReadAt(buf, 0); err != nil {
		return names
	}
	dir := map[string]int{}
	if err := gob.NewDecoder(bytes.NewReader(buf)).Decode(&dir); err != nil {
		return names
	}
	for name, ino := range dir {
		names[ino] = name
	}
	return names
}
