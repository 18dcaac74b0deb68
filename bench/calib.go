package main

import (
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The reference kernel is the benchmark's yardstick: a fixed amount of
// stdlib-only work whose duration tracks how fast this machine is right
// now. It shares no code with the program under test (nothing from the
// wfsql module is imported here), so a change to the program cannot move
// it. It allocates on purpose, in the two styles the program does — a few
// large blocks (map buckets, byte buffers) and many small short-lived
// objects (tree nodes, strings) — because the program is allocation-bound:
// an allocation-free kernel does not slow down when the collector does,
// and the ratio drifts.

// Iteration counts of the kernel's two halves: ≈ 3 ms each on the
// reference sandbox, ≈ 15 % of a slice. Shorter samples tracked worse: the
// spread between same-seed runs fell with every millisecond of kernel
// added per slice, up to about this size.
const (
	calibMapIters  = 300
	calibTreeIters = 470
)

// CalibRefUS is the kernel's duration, in µs, on the builder's sandbox
// (a 2-vCPU Firecracker guest, Xeon 2.1 GHz, go1.24): the lower end of
// its per-run medians between the slices of the six workloads, measured
// once and rounded. It only fixes the unit of every calibrated metric —
// "reference-machine seconds" — and must never be changed: doing so
// rescales every time metric.
const CalibRefUS = 6000.0

// quickKernel is set under -quick, where the kernel's duration means
// nothing and tests should not wait for it: a hundredth of the iterations
// and no collections.
var quickKernel bool

// calibSink keeps the compiler from discarding the kernel's results.
var calibSink int

// calibKernel runs the fixed reference work and returns how long it took
// in µs.
//
// The kernel must not inherit work from the program. Left alone, its
// allocations would finish the sweep of, and then pay a mark over,
// whatever heap the slice before it left behind — and since a slice is a
// fixed number of ops, the point of the collector's cycle at which a
// slice ends is a fixed function of the seed: ora-fig8 read 13 % faster
// on one seed than on another, uniformly across every layer, because the
// kernel was that much slower. So the heap is collected and swept before
// the timer starts, the collector is held off while the kernel runs, and
// the kernel's garbage is dropped before the program continues. Both
// collections are outside every timer; the next slice starts from a clean
// heap, which makes its own number of cycles a constant too.
func calibKernel() float64 {
	if quickKernel {
		start := time.Now()
		calibSink += calibMaps(calibMapIters/100) + calibTrees(calibTreeIters/100)
		return float64(time.Since(start).Nanoseconds()) / 1e3
	}
	runtime.GC()
	gogc := debug.SetGCPercent(-1)
	start := time.Now()
	calibSink += calibMaps(calibMapIters) + calibTrees(calibTreeIters)
	elapsed := time.Since(start)
	debug.SetGCPercent(gogc)
	runtime.GC()
	return float64(elapsed.Nanoseconds()) / 1e3
}

// calibMaps: per iteration build a 64-entry map from 128 strconv keys,
// sort the keys, append an XML-ish row per key into a fresh buffer and
// convert it to a string.
func calibMaps(iters int) int {
	total := 0
	for it := 0; it < iters; it++ {
		m := make(map[string]int, 64)
		for k := 0; k < 128; k++ {
			m[strconv.Itoa((k*7919+it)%64)] += k
		}
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var row []byte
		for _, k := range keys {
			row = append(row, "<Row><K>"...)
			row = append(row, k...)
			row = append(row, "</K><V>"...)
			row = strconv.AppendInt(row, int64(m[k]), 10)
			row = append(row, "</V></Row>"...)
		}
		total += len(string(row))
	}
	return total
}

type calibNode struct {
	name, text string
	children   []*calibNode
}

type calibRow struct {
	key string
	qty int64
	ok  bool
}

// calibTrees: per iteration build an 8-row document of small nodes,
// serialize it, read the rows back into groups keyed by a string, and
// format one line per group.
func calibTrees(iters int) int {
	total := 0
	for it := 0; it < iters; it++ {
		root := &calibNode{name: "RowSet"}
		for r := 0; r < 8; r++ {
			row := &calibNode{name: "Row"}
			row.children = append(row.children,
				&calibNode{name: "ItemID", text: "item" + strconv.Itoa((r*31+it)%97)},
				&calibNode{name: "Quantity", text: strconv.Itoa(1 + (r*7+it)%20)},
				&calibNode{name: "Approved", text: strconv.FormatBool((r+it)%5 != 0)})
			root.children = append(root.children, row)
		}
		var sb strings.Builder
		sb.WriteString("<" + root.name + ">")
		for _, row := range root.children {
			sb.WriteString("<" + row.name + ">")
			for _, c := range row.children {
				sb.WriteString("<" + c.name + ">" + c.text + "</" + c.name + ">")
			}
			sb.WriteString("</" + row.name + ">")
		}
		sb.WriteString("</" + root.name + ">")
		groups := map[string][]*calibRow{}
		for _, row := range root.children {
			q, _ := strconv.ParseInt(row.children[1].text, 10, 64)
			ok, _ := strconv.ParseBool(row.children[2].text)
			k := row.children[0].text
			groups[k] = append(groups[k], &calibRow{key: k, qty: q, ok: ok})
		}
		keys := make([]string, 0, len(groups))
		for k := range groups {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		lines := make([]string, 0, len(keys))
		for _, k := range keys {
			var sum int64
			for _, r := range groups[k] {
				if r.ok {
					sum += r.qty
				}
			}
			lines = append(lines, "CONFIRMED:"+k+":"+strconv.FormatInt(sum, 10))
		}
		total += sb.Len() + len(strings.Join(lines, ","))
	}
	return total
}
