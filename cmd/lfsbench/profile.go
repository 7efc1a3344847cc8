package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
)

// profiles holds the -cpuprofile and -memprofile destinations: the
// host-side profile of whatever experiment runs, for finding where
// the simulator spends its own time and allocations.
type profiles struct {
	cpu, mem string
	cpuFile  *os.File
}

// register adds the profile flags to fs.
func (p *profiles) register(fs *flag.FlagSet) {
	fs.StringVar(&p.cpu, "cpuprofile", "", "write a CPU profile of the run to this file (read with go tool pprof)")
	fs.StringVar(&p.mem, "memprofile", "", "write an allocation profile of the run to this file at exit (read with go tool pprof)")
}

// start begins CPU profiling when -cpuprofile is set.
func (p *profiles) start() error {
	if p.cpu == "" {
		return nil
	}
	f, err := os.Create(p.cpu)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("starting CPU profile: %w", err)
	}
	p.cpuFile = f
	return nil
}

// stop ends CPU profiling and writes the allocation profile, each
// when requested.
func (p *profiles) stop() error {
	if p.cpuFile != nil {
		pprof.StopCPUProfile()
		err := p.cpuFile.Close()
		p.cpuFile = nil
		if err != nil {
			return err
		}
	}
	if p.mem == "" {
		return nil
	}
	f, err := os.Create(p.mem)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return fmt.Errorf("writing allocation profile: %w", err)
	}
	return f.Close()
}
