// Forkserver: the paper's headline use case (§5.1). A "server" process
// periodically checkpoints itself with fork; the parent keeps mutating
// its heap. Conventional copy-on-write copies a full page per first
// touch; overlay-on-write moves single cache lines into overlays. The
// example runs the same write pattern under both mechanisms and compares
// added memory and simulated cycles.
package main

import (
	"fmt"
	"log"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/vm"
)

const (
	heapPages     = 256
	linesPerPage  = 3 // sparse update pattern (Type 3-like)
	checkpoints   = 4
	writesPerSnap = heapPages * linesPerPage
)

func main() {
	fmt.Println("mechanism        added-memory   cycles    (4 checkpoints, sparse heap updates)")
	for _, overlay := range []bool{false, true} {
		added, cycles := run(overlay)
		name := "copy-on-write"
		if overlay {
			name = "overlay-on-write"
		}
		fmt.Printf("%-16s %9d KB %10d\n", name, added>>10, cycles)
	}
}

func run(overlayMode bool) (addedBytes int, cycles uint64) {
	cfg := core.DefaultConfig()
	f, err := core.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	server := f.VM.NewProcess()
	if err := f.VM.MapAnon(server, 0, heapPages); err != nil {
		log.Fatal(err)
	}
	// Populate the heap.
	for p := 0; p < heapPages; p++ {
		f.Store(server.PID, arch.VirtAddr(p)*arch.PageSize, []byte{byte(p)})
	}

	port := f.NewPort()
	framesBefore := f.Mem.AllocatedPages()
	omsBefore := f.OMS.BytesInUse()
	omsFramesBefore := f.OMS.FramesOwned()
	start := f.Engine.Now()

	var snapshots []*vm.Process
	for snap := 0; snap < checkpoints; snap++ {
		child := f.Fork(server, overlayMode)
		snapshots = append(snapshots, child)

		// The server keeps running: touch a few lines of every page.
		pending := 0
		done := sim.Bind(func(uint64) { pending-- }, 0)
		for w := 0; w < writesPerSnap; w++ {
			page := w % heapPages
			line := (w/heapPages*17 + snap) % arch.LinesPerPage
			va := arch.VirtAddr(page)*arch.PageSize + arch.VirtAddr(line*arch.LineSize)
			pending++
			port.Write(server.PID, va, done)
		}
		f.Engine.Run()
		if pending != 0 {
			log.Fatal("writes did not drain")
		}
	}

	// Snapshots still see their fork-time bytes.
	var b [1]byte
	f.Load(snapshots[0].PID, 0, b[:])
	if b[0] != 0 {
		log.Fatalf("snapshot corrupted: %d", b[0])
	}

	regular := f.Mem.AllocatedPages() - framesBefore - (f.OMS.FramesOwned() - omsFramesBefore)
	addedBytes = regular*arch.PageSize + f.OMS.BytesInUse() - omsBefore
	return addedBytes, uint64(f.Engine.Now() - start)
}
