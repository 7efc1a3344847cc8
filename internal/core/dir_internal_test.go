package core

import (
	"fmt"
	"strings"
	"testing"

	"lfs/internal/layout"
)

// holedDir builds /d holding /d/a, checkpoints, then clears the
// address of /d's only block and drops it from the cache, leaving a
// hole in the directory.
func holedDir(t *testing.T) (*FS, *layout.Inode) {
	t.Helper()
	fs := newTestFS(t, 16<<20, smallConfig())
	if err := fs.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("/d/a"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if rep, err := fs.Check(); err != nil || !rep.Ok() {
		t.Fatalf("before corruption: %v, %v", rep, err)
	}
	d, err := fs.resolveDir([]string{"d"})
	if err != nil {
		t.Fatal(err)
	}
	d.Direct[0] = layout.NilAddr
	fs.bc.Remove(dataKey(d.Ino, 0))
	return fs, d
}

// TestCheckReportsDirectoryHole: a hole in a directory is corruption,
// so the check lists the directory as unreadable instead of silently
// reading past the hole.
func TestCheckReportsDirectoryHole(t *testing.T) {
	fs, d := holedDir(t)
	rep, err := fs.Check()
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("/d: listing: namei: directory %d has a hole at block 0", d.Ino)
	for _, p := range rep.Problems {
		if p == want {
			return
		}
	}
	t.Fatalf("problems %q do not include %q", rep.Problems, want)
}

// TestDirHoleFailsRemove: the emptiness check fails on the hole, so a
// directory whose entries sit behind it is not removed as empty.
func TestDirHoleFailsRemove(t *testing.T) {
	fs, _ := holedDir(t)
	if err := fs.Remove("/d"); err == nil || !strings.Contains(err.Error(), "has a hole at block 0") {
		t.Fatalf("Remove(/d) over a hole: err = %v", err)
	}
}
