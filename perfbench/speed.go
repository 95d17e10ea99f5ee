package main

import (
	"bytes"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// The benchmark runs on a few vCPUs of a shared host, whose speed drifts
// by a third or more over minutes and by a fifth from one second to the
// next: hypervisor steal, neighbours on the same cores and caches. Wall
// and CPU time of the same work drift with it, so ten runs of the same
// code spread by more than any useful bound. Every timed end-to-end
// figure is therefore read against a yardstick: a fixed CPU kernel the
// benchmark runs itself right before and right after each operation
// (each set-up, each one-second slice of the open loop). A figure is
// scaled by yardRefSeconds over the mean of the two kernel times around
// it, so it reads as the seconds the operation would take on the
// reference machine at that machine's calm speed. The kernel is the
// benchmark's own code and uses only the standard library, so no change
// to the repository moves it; a change that makes the program slower
// moves the operation's time and not the yardstick's.
//
// The kernel is the kind of work the measured paths do: it scans a CSV
// held in memory, parses every field with strconv.ParseFloat into
// columns and sorts each column. It allocates nothing after the first
// run, so the benchmark's own heap and collector do not move it.
const (
	yardRows = 20_000
	yardCols = 8
	// yardRefSeconds is the kernel's median time on the reference
	// machine (2 vCPUs of an Intel Xeon, Go 1.24) when it is calm.
	yardRefSeconds = 0.036
)

// yardstick runs the kernel and keeps every reading. It runs one copy
// of the kernel per thread the measured operation keeps busy: a
// one-thread yardstick does not see a slow second vCPU that slows a
// two-thread operation, and a two-thread one sees a slow second vCPU
// that a one-thread operation does not wait on.
type yardstick struct {
	csv      []byte
	lanes    []*yardLane
	readings []reading
}

// yardLane is one thread's copy of the kernel's output columns.
type yardLane struct {
	cols [yardCols][]float64
	sum  float64 // keeps the kernel's results live
}

// newYardstick builds the kernel's fixed input (the same bytes on every
// run, whatever the workload seed) and runs the kernel once unmeasured
// on each of threads lanes.
func newYardstick(threads int) *yardstick {
	y := &yardstick{}
	var b bytes.Buffer
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < yardRows; i++ {
		for j := 0; j < yardCols; j++ {
			x = x*6364136223846793005 + 1442695040888963407
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatFloat(float64(x>>40)/1000, 'f', 3, 64))
		}
		b.WriteByte('\n')
	}
	y.csv = b.Bytes()
	for t := 0; t < threads; t++ {
		l := &yardLane{}
		for j := range l.cols {
			l.cols[j] = make([]float64, 0, yardRows)
		}
		l.kernel(y.csv)
		y.lanes = append(y.lanes, l)
	}
	return y
}

// kernel parses csv into columns and sorts each column.
func (l *yardLane) kernel(csv []byte) {
	for j := range l.cols {
		l.cols[j] = l.cols[j][:0]
	}
	field, col := 0, 0
	for i, c := range csv {
		if c != ',' && c != '\n' {
			continue
		}
		v, err := strconv.ParseFloat(string(csv[field:i]), 64)
		if err != nil {
			panic("perfbench: yardstick input does not parse: " + err.Error())
		}
		l.cols[col] = append(l.cols[col], v)
		field, col = i+1, col+1
		if c == '\n' {
			col = 0
		}
	}
	for _, c := range l.cols {
		sort.Float64s(c)
		l.sum += c[len(c)/2]
	}
}

// reading is one yardstick run: the wall time until every lane is done
// and the mean CPU time of the lanes' threads, in seconds. CPU time
// leaves out what the hypervisor stole from the vCPU, as the CPU
// figures the benchmark reads of its children and daemons do, so CPU
// figures scale by it.
type reading struct{ wall, cpu float64 }

// measure runs the kernel once on every lane, each on a locked thread,
// and records the reading. It first finishes any garbage collection the
// benchmark's own work has left due, so the collector's background
// workers do not share the vCPUs with the kernel.
func (y *yardstick) measure() reading {
	runtime.GC()
	cpus := make([]float64, len(y.lanes))
	run := func(i int) {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		cpu0 := threadCPU()
		y.lanes[i].kernel(y.csv)
		cpus[i] = threadCPU() - cpu0
	}
	var wg sync.WaitGroup
	start := time.Now()
	for i := 1; i < len(y.lanes); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(i)
		}()
	}
	run(0) // on this goroutine, which is already running
	wg.Wait()
	r := reading{wall: time.Since(start).Seconds(), cpu: mean(cpus)}
	y.readings = append(y.readings, r)
	return r
}

func threadCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		panic("perfbench: getrusage: " + err.Error())
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

// rusageThread is Linux's RUSAGE_THREAD, which package syscall does
// not name.
const rusageThread = 1

// wallFactor is what a wall time measured between the readings before
// and after is multiplied by; cpuFactor likewise for a CPU time.
func wallFactor(before, after reading) float64 {
	return 2 * yardRefSeconds / (before.wall + after.wall)
}

func cpuFactor(before, after reading) float64 {
	return 2 * yardRefSeconds / (before.cpu + after.cpu)
}

// runCPUFactor scales a CPU time accumulated over a whole loop, such as
// a daemon's, by the median kernel CPU time of the readings since the
// reading numbered from.
func (y *yardstick) runCPUFactor(from int) float64 {
	var cpus []float64
	for _, r := range y.readings[from:] {
		cpus = append(cpus, r.cpu)
	}
	return yardRefSeconds / median(cpus)
}

// record summarises the kernel readings for the run record.
func (y *yardstick) record() map[string]any {
	var walls, cpus []float64
	for _, r := range y.readings {
		walls = append(walls, r.wall)
		cpus = append(cpus, r.cpu)
	}
	return map[string]any{
		"ref_s": yardRefSeconds, "threads": len(y.lanes), "runs": len(y.readings),
		"wall_p50_s": median(walls), "wall_p10_s": percentile(walls, 10), "wall_p90_s": percentile(walls, 90),
		"cpu_p50_s": median(cpus),
	}
}
