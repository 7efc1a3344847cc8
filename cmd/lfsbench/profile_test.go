package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// TestProfileFlags parses -cpuprofile and -memprofile and checks that
// a start/stop cycle leaves both profiles as gzipped pprof files.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	var p profiles
	fs := flag.NewFlagSet("lfsbench", flag.ContinueOnError)
	p.register(fs)
	if err := fs.Parse([]string{"-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	if p.cpu != cpu || p.mem != mem {
		t.Fatalf("parsed cpu=%q mem=%q", p.cpu, p.mem)
	}
	if err := p.start(); err != nil {
		t.Fatal(err)
	}
	if err := p.stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(b, []byte{0x1f, 0x8b}) {
			t.Errorf("%s is not a gzipped profile (%d bytes)", filepath.Base(path), len(b))
		}
	}
}

func TestProfileUnwritablePath(t *testing.T) {
	p := profiles{cpu: filepath.Join(t.TempDir(), "missing", "cpu.pprof")}
	if err := p.start(); err == nil {
		p.stop()
		t.Fatal("start succeeded on a path in a missing directory")
	}
}
