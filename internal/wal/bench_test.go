package wal

import (
	"fmt"
	"os"
	"testing"
)

// BenchmarkSegmentAppend times one frame append plus its sync for the
// three states a live segment can be in: growing (a new directory's
// first log, or past the pre-written size — every sync also commits
// the file's new size and extents), pre-written (zero-filled before it
// went live) and recycled (pre-written with another generation's
// frames). Each arm refills one 4 MiB segment as often as b.N needs;
// the growing arm starts each refill from a new, empty file.
func BenchmarkSegmentAppend(b *testing.B) {
	for _, size := range []int{700, 10 << 10} {
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = byte(i)
		}
		perSegment := (segSize - len(segMagic)) / (frameHdr + size)
		for _, state := range []string{"growing", "prewritten", "recycled"} {
			b.Run(fmt.Sprintf("%dB/%s", size, state), func(b *testing.B) {
				dir := b.TempDir()
				var stats counters
				var seg *segment
				gen := uint64(0)
				refill := func() {
					b.StopTimer()
					defer b.StartTimer()
					if seg != nil {
						if err := seg.close(); err != nil {
							b.Fatal(err)
						}
					}
					gen++
					switch {
					case state == "growing":
						os.Remove(logPath(dir, gen-1))
						if err := createSegment(dir, gen, 0); err != nil {
							b.Fatal(err)
						}
					case state == "recycled" && gen > 1:
						// The full segment of the previous generation, renamed.
						if err := os.Rename(logPath(dir, gen-1), logPath(dir, gen)); err != nil {
							b.Fatal(err)
						}
					default:
						os.Remove(logPath(dir, gen-1))
						if err := createSegment(dir, gen, segSize); err != nil {
							b.Fatal(err)
						}
					}
					var err error
					if seg, err = openSegment(logPath(dir, gen), int64(len(segMagic)), logSeed(gen), 1, &stats); err != nil {
						b.Fatal(err)
					}
				}
				if state == "recycled" {
					// Fill generation 1 off the clock so the first timed
					// segment already holds old frames.
					refill()
					for i := 0; i < perSegment; i++ {
						if err := seg.append(payload); err != nil {
							b.Fatal(err)
						}
					}
				}
				syncs0, syncNS0 := stats.syncs.Load(), stats.syncNS.Load()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if i%perSegment == 0 {
						refill()
					}
					if err := seg.append(payload); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				seg.close()
				if state != "growing" && stats.grows.Load() != 0 {
					b.Fatalf("%d appends grew a %s segment", stats.grows.Load(), state)
				}
				b.ReportMetric(float64(stats.syncNS.Load()-syncNS0)/float64(stats.syncs.Load()-syncs0)/1e3, "sync-µs")
			})
		}
	}
}
