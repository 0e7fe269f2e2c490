package bench

import "testing"

func TestMixedCommitFastPathSavings(t *testing.T) {
	// The same 50%-read workload with fast paths off and on.  The fast
	// run must take both fast paths and strictly reduce forced I/O; the
	// paper-exact run must take neither.
	off, err := MixedCommit(20, 50, false)
	if err != nil {
		t.Fatal(err)
	}
	on, err := MixedCommit(20, 50, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []MixedRow{off, on} {
		if row.Committed != 20 || row.Aborted != 0 {
			t.Fatalf("%s: committed=%d aborted=%d, want 20/0", row.Case, row.Committed, row.Aborted)
		}
	}
	if off.ReadOnly != 0 || off.OnePhase != 0 {
		t.Fatalf("paper-exact run took fast paths: ro=%d 1pc=%d", off.ReadOnly, off.OnePhase)
	}
	if on.ReadOnly == 0 || on.OnePhase == 0 {
		t.Fatalf("fast-path run took none: ro=%d 1pc=%d", on.ReadOnly, on.OnePhase)
	}
	if on.ForcedIOs >= off.ForcedIOs {
		t.Fatalf("forced I/O not reduced: on=%d off=%d", on.ForcedIOs, off.ForcedIOs)
	}
	if on.CoordWrites >= off.CoordWrites {
		t.Fatalf("coordinator log writes not reduced: on=%d off=%d", on.CoordWrites, off.CoordWrites)
	}
}

func TestMixedCommitDeterministicIOs(t *testing.T) {
	// The CI bench smoke diffs ForcedPerTxn against BENCH_PR10.json, so
	// the serial workload's I/O counts must not wobble between runs.
	a, err := MixedCommit(10, 50, true)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MixedCommit(10, 50, true)
	if err != nil {
		t.Fatal(err)
	}
	if a.ForcedIOs != b.ForcedIOs || a.CoordWrites != b.CoordWrites ||
		a.PrepWrites != b.PrepWrites || a.ReadOnly != b.ReadOnly || a.OnePhase != b.OnePhase {
		t.Fatalf("I/O counts wobbled: %+v vs %+v", a, b)
	}
}

func TestMixedCommitPureReadShare(t *testing.T) {
	// 100% reads with fast paths: every transaction is all-read-only -
	// no prepare record anywhere, one coordinator-log write each (the
	// step-1 record; the commit-mark force is skipped).
	row, err := MixedCommit(10, 100, true)
	if err != nil {
		t.Fatal(err)
	}
	if row.Committed != 10 {
		t.Fatalf("committed = %d", row.Committed)
	}
	if row.PrepWrites != 0 {
		t.Fatalf("PrepWrites = %d, want 0 for pure readers", row.PrepWrites)
	}
	if row.CoordWrites != int64(row.Committed) {
		t.Fatalf("CoordWrites = %d, want %d (step 1 only)", row.CoordWrites, row.Committed)
	}
	if row.ReadOnly != 2*int64(row.Committed) {
		t.Fatalf("ReadOnly = %d, want %d (both sites each txn)", row.ReadOnly, 2*row.Committed)
	}
}
