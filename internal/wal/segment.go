// Package wal is the durability layer behind the relstore: a
// write-ahead log of committed batches in fixed-size, pre-written
// segments plus generational checkpoints of full table contents.
// Restart cost is O(changed rows since the last checkpoint), not
// O(database): recovery loads the newest checkpoint, replays the log
// segments of its generation and later, and hands the warm tables back
// to the exchange engine, which re-attaches its delta-evaluation state
// in O(rows) (datalog.WarmAttach) instead of re-deriving the world
// with a cold full run.
//
// On-disk layout:
//
//	<dir>/ckpt-<c>.ckpt   full table snapshot covering every log of a generation below c
//	<dir>/wal-<g>.log     batches committed while g was the live generation
//
// At rest there is one checkpoint c, the live log c and the next log
// c+1, already in place and empty. A checkpoint switches appends to the
// next log and returns; a background goroutine writes ckpt-(c+1) from
// the snapshot pinned at the switch, renames it into place (the commit
// point), removes ckpt-c and renames wal-c.log to wal-(c+2).log — the
// segment is recycled with its blocks already written. Recovery is
// "newest checkpoint c, then every log of generation >= c in order,
// skipping epochs the checkpoint covers".
//
// Both file kinds are sequences of frames:
//
//	[uint32 LE payload length][uint32 LE checksum][payload]
//
// A checkpoint frame's checksum is the CRC-32C of its payload. A log
// frame's checksum continues the previous frame's over its own payload,
// and the first frame continues a seed derived from the generation, so
// a frame is valid only as the successor of the valid frames before it
// in this generation. A commit is a positional write into blocks that
// are already on disk followed by one sync with no size or extent
// change to flush; the zero tail of a new segment, the stale frames of
// a recycled one and whatever a torn write left behind all fail the
// chain and read as the end of the log. Nothing is ever truncated.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"time"
)

const (
	// maxRecord bounds a single record payload (64 MiB). A length word
	// beyond it is treated as a torn or corrupt tail, not an allocation.
	maxRecord = 64 << 20
	frameHdr  = 8
	// saltFlag in a frame's length word marks a salt frame: it advances
	// the checksum chain and carries no batch. Open appends one holding
	// a fresh nonce before it resumes a log, so frames a previous
	// incarnation left beyond a torn tail can never follow on from what
	// this incarnation writes, even if it writes the same bytes again.
	saltFlag = 1 << 31

	// segMagic opens every log segment.
	segMagic = "proql-wal-seg-2\n"
	// segSize is the pre-written size of a log segment: room for a
	// checkpoint interval of the served workload (256 commits of ~10 KB)
	// with slack. A batch that does not fit is written past it by the
	// same positional write and grows the file.
	segSize = 4 << 20
)

// ErrOldFormat reports a data directory whose log was written by an
// earlier release (length+CRC frames in an append-mode file). There is
// no dual-format reader: recover it with the release that wrote it.
var ErrOldFormat = errors.New("wal: log segment is not in the chained-checksum format")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// logSeed starts generation gen's checksum chain.
func logSeed(gen uint64) uint32 {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], gen)
	return crc32.Update(crc32.Checksum([]byte(segMagic), castagnoli), castagnoli, b[:])
}

// appendFrame appends the frame for payload to buf, its checksum
// continuing prev, and returns the checksum. word is the length word:
// len(payload), with saltFlag for a salt frame.
func appendFrame(buf []byte, prev, word uint32, payload []byte) ([]byte, uint32) {
	sum := crc32.Update(prev, castagnoli, payload)
	var hdr [frameHdr]byte
	binary.LittleEndian.PutUint32(hdr[0:4], word)
	binary.LittleEndian.PutUint32(hdr[4:8], sum)
	buf = append(buf, hdr[:]...)
	return append(buf, payload...), sum
}

// readFrames decodes consecutive frames from r, calling fn with each
// payload (valid only during the call; salt frames are consumed, not
// delivered). sum is the checksum the first frame continues; with
// chained set every later frame continues its predecessor's, otherwise
// each continues sum (a checkpoint's independent frames, sum 0). It
// returns the byte offset of the first incomplete or invalid frame,
// the checksum the next frame must continue, and how many frames were
// valid — and a nil error: a damaged tail is an expected crash
// artifact, not a failure. Errors from fn abort the scan.
func readFrames(r io.Reader, sum uint32, chained bool, fn func(payload []byte) error) (end int64, last uint32, frames int, err error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [frameHdr]byte
	var buf []byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return end, sum, frames, nil // clean EOF or torn header
		}
		word := binary.LittleEndian.Uint32(hdr[0:4])
		n := word &^ saltFlag
		if n == 0 || n > maxRecord {
			return end, sum, frames, nil // zero tail or garbage
		}
		if cap(buf) < int(n) {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(br, buf); err != nil {
			return end, sum, frames, nil // torn payload
		}
		got := crc32.Update(sum, castagnoli, buf)
		if got != binary.LittleEndian.Uint32(hdr[4:8]) {
			return end, sum, frames, nil
		}
		if word&saltFlag == 0 {
			if err := fn(buf); err != nil {
				return end, sum, frames, err
			}
		}
		if chained {
			sum = got
		}
		frames++
		end += frameHdr + int64(n)
	}
}

// segment is the writer of one log file: every append is one
// positional write at the end of the valid frames, and the file is
// synced every syncEvery appends (and on sync/close).
type segment struct {
	f         *os.File
	off       int64  // where the next frame goes
	sum       uint32 // checksum the next frame continues
	written   int64  // file size: appends ending past it grow the file
	syncEvery int
	unsynced  int
	buf       []byte
	stats     *counters
}

// createSegment puts an empty log segment in place as wal-<gen>.log,
// with size bytes of it written (and synced) beforehand; a size below
// the header's leaves a file that grows with every append. The caller
// syncs the directory.
func createSegment(dir string, gen uint64, size int64) error {
	tmp := filepath.Join(dir, fmt.Sprintf("seg-%d.tmp", gen))
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	_, err = f.Write([]byte(segMagic))
	zeros := make([]byte, 256<<10)
	for off := int64(len(segMagic)); err == nil && off < size; off += int64(len(zeros)) {
		_, err = f.WriteAt(zeros[:min(int64(len(zeros)), size-off)], off)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, logPath(dir, gen))
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// openSegment opens a log file for appending at off, where a scan
// found the end of generation gen's valid frames and sum the checksum
// to continue (len(segMagic) and logSeed(gen) for an empty one).
func openSegment(path string, off int64, sum uint32, syncEvery int, stats *counters) (*segment, error) {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if syncEvery < 1 {
		syncEvery = 1
	}
	return &segment{f: f, off: off, sum: sum, written: st.Size(), syncEvery: syncEvery, stats: stats}, nil
}

// append writes one frame and syncs at the configured cadence:
// durability lags by at most syncEvery-1 frames. After an error the
// segment may hold a partial frame and must not be appended to again
// (the store latches the error).
func (s *segment) append(payload []byte) error {
	if err := s.write(uint32(len(payload)), payload); err != nil {
		return err
	}
	if s.unsynced >= s.syncEvery {
		return s.sync()
	}
	return nil
}

// write puts one frame with the given length word at the end of the
// valid frames; the next sync covers it.
func (s *segment) write(word uint32, payload []byte) error {
	var sum uint32
	s.buf, sum = appendFrame(s.buf[:0], s.sum, word, payload)
	if _, err := s.f.WriteAt(s.buf, s.off); err != nil {
		return err
	}
	s.off += int64(len(s.buf))
	s.sum = sum
	if s.off > s.written {
		s.written = s.off
		s.stats.grows.Add(1)
	}
	s.unsynced++
	return nil
}

// sync forces the appended frames to stable storage.
func (s *segment) sync() error {
	if s.unsynced == 0 {
		return nil
	}
	t0 := time.Now()
	err := s.f.Sync()
	s.stats.syncs.Add(1)
	s.stats.syncNS.Add(int64(time.Since(t0)))
	if err == nil {
		s.unsynced = 0
	}
	return err
}

// close syncs and closes the file.
func (s *segment) close() error {
	err := s.sync()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncDir fsyncs a directory so renames and creates within it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
