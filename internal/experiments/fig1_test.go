package experiments

import (
	"strings"
	"testing"

	"lfs/internal/disk"
	"lfs/internal/obs"
)

func TestRecorderAndSummarize(t *testing.T) {
	r := obs.NewRecorder()
	r.Record(disk.Event{Kind: disk.OpWrite, Sector: 0, Sectors: 8, Sync: true, Sequential: false, Label: "inode"})
	r.Record(disk.Event{Kind: disk.OpWrite, Sector: 8, Sectors: 8, Sync: false, Sequential: true, Label: "data"})
	r.Record(disk.Event{Kind: disk.OpRead, Sector: 0, Sectors: 8, Sync: true, Sequential: false, Label: "read"})
	s := Summarize(r.Events())
	if s.Writes != 2 || s.SyncWrites != 1 || s.SeqWrites != 1 || s.Reads != 1 {
		t.Fatalf("summary = %+v", s)
	}
	if s.BytesWritten != 2*8*512 || s.BytesRead != 8*512 {
		t.Fatalf("bytes = %+v", s)
	}
	if s.Seeks != 2 {
		t.Fatalf("seeks = %d", s.Seeks)
	}
	if !strings.Contains(s.String(), "writes=2") {
		t.Fatalf("String = %q", s.String())
	}
}

func TestFormatTable(t *testing.T) {
	r := obs.NewRecorder()
	r.Record(disk.Event{Kind: disk.OpWrite, Sector: 100, Sectors: 8, Sync: true, Label: "dir data"})
	out := FormatTable(r.Events())
	if !strings.Contains(out, "dir data") || !strings.Contains(out, "write") {
		t.Fatalf("table missing fields:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("table has %d lines, want header + 1 row", len(lines))
	}
}

func TestEmptySummary(t *testing.T) {
	s := Summarize(nil)
	if s != (Summary{}) {
		t.Fatalf("empty summary = %+v", s)
	}
}
