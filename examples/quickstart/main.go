// Quickstart: build an overlay-enabled memory system, fork a process in
// overlay-on-write mode, and watch a write create a one-line overlay
// instead of a full page copy.
package main

import (
	"fmt"
	"log"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/sim"
)

func main() {
	// Assemble the Table 2 system (caches, TLBs, DDR3, OMT, OMS).
	f, err := core.New(core.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	// A process with one page of data.
	parent := f.VM.NewProcess()
	if err := f.VM.MapAnon(parent, 0, 1); err != nil {
		log.Fatal(err)
	}
	if err := f.Store(parent.PID, 0, []byte("hello, page overlays")); err != nil {
		log.Fatal(err)
	}

	// Fork with overlay-on-write (the paper's replacement for
	// copy-on-write). No memory is copied.
	child := f.Fork(parent, true)
	before := f.Mem.AllocatedPages()

	// The parent writes one byte. Conventional COW would copy 4 KB; the
	// overlay framework moves one 64 B cache line into an overlay.
	if err := f.Store(parent.PID, 0, []byte("H")); err != nil {
		log.Fatal(err)
	}

	obits, segBytes := f.OverlayInfo(parent.PID, 0)
	fmt.Printf("frames allocated by the write: %d\n", f.Mem.AllocatedPages()-before)
	fmt.Printf("parent overlay: %d line(s) in a %d B segment (OBitVector %s...)\n",
		obits.Count(), segBytes, obits.String()[56:])

	// Both processes see their own data.
	buf := make([]byte, 20)
	f.Load(parent.PID, 0, buf)
	fmt.Printf("parent reads: %q\n", buf)
	f.Load(child.PID, 0, buf)
	fmt.Printf("child reads:  %q\n", buf)

	// Promote the overlay back to a regular page when it outlives its use.
	if err := f.Promote(parent, 0, core.CopyAndCommit); err != nil {
		log.Fatal(err)
	}
	obits, segBytes = f.OverlayInfo(parent.PID, 0)
	fmt.Printf("after copy-and-commit: %d overlay lines, %d B segment\n", obits.Count(), segBytes)

	// Timed accesses run through the full TLB/cache/DRAM model.
	port := f.NewPort()
	start := f.Engine.Now()
	port.Read(parent.PID, arch.VirtAddr(0), sim.Bind(func(uint64) {
		fmt.Printf("timed read completed in %d cycles\n", f.Engine.Now()-start)
	}, 0))
	f.Engine.Run()
}
