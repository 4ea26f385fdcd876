package wal

import (
	"os"
	"testing"

	"repro/internal/model"
	"repro/internal/relstore"
)

// logFile renders a log segment of generation gen holding the given
// payloads as consecutive chained frames.
func logFile(gen uint64, payloads ...[]byte) []byte {
	blob, sum := []byte(segMagic), logSeed(gen)
	for _, p := range payloads {
		blob, sum = appendFrame(blob, sum, uint32(len(p)), p)
	}
	return blob
}

// validLog builds a well-formed log of generation gen (DDL + inserts +
// deletes) as a fuzz seed, so mutations start from bytes that exercise
// the decoder's deep paths rather than dying at the first checksum.
func validLog(gen uint64) []byte {
	sc := keyedSchema("R")
	return logFile(gen,
		AppendBatch(nil, 2*gen+2, []relstore.LoggedOp{
			{Kind: relstore.OpCreateTable, Table: "R", Schema: sc},
			{Kind: relstore.OpInsert, Table: "R", Row: model.Tuple{int64(1), "a"}},
			{Kind: relstore.OpInsert, Table: "R", Row: model.Tuple{int64(2), "b"}},
		}),
		AppendBatch(nil, 2*gen+3, []relstore.LoggedOp{
			{Kind: relstore.OpDeleteKey, Table: "R", Key: model.EncodeDatums([]model.Datum{int64(1)})},
			{Kind: relstore.OpDeleteRow, Table: "M", Row: model.Tuple{int64(9), int64(9)}},
			{Kind: relstore.OpDropTable, Table: "R"},
		}))
}

// FuzzWALReplay feeds arbitrary bytes to the full recovery path — a
// data directory whose two logs (the state between a log switch and
// its checkpoint landing) are the fuzz inputs after the segment magic —
// and requires it never panics: every outcome is either a recovered
// store or a clean error. Frames that pass the checksum chain but
// decode to garbage ops must surface as errors, and whatever Open
// accepts must reopen identically (recovery is idempotent, though the
// first Open appended a salt frame and put the next segment in place).
func FuzzWALReplay(f *testing.F) {
	hdr := len(segMagic)
	log0, log1 := validLog(0)[hdr:], validLog(1)[hdr:]
	f.Add([]byte{}, []byte{})
	f.Add(log0, []byte{})
	f.Add(log0, log1)
	f.Add(log0[:len(log0)-5], log1) // torn tail in the older log
	mut := append([]byte(nil), log0...)
	mut[9] ^= 0x40 // corrupt first payload byte (the checksum catches it)
	f.Add(mut, log1)
	f.Add(logFile(0, []byte{0x07})[hdr:], []byte{})                             // valid frame, garbage batch
	f.Add(validLog(1)[hdr:], log0)                                              // frames of the wrong generation: empty logs
	f.Add(append(append([]byte(nil), log0...), make([]byte, 64)...), log1[:20]) // zero tail
	f.Fuzz(func(t *testing.T, data0, data1 []byte) {
		dir := t.TempDir()
		for gen, data := range [][]byte{data0, data1} {
			if err := os.WriteFile(logPath(dir, uint64(gen)), append([]byte(segMagic), data...), 0o644); err != nil {
				t.Skip()
			}
		}
		s, err := Open(dir, Options{})
		if err != nil {
			return
		}
		sig := signature(s.DB())
		epoch := s.DB().Epoch()
		if err := s.Close(); err != nil {
			t.Fatalf("close after successful open: %v", err)
		}
		s2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("reopen of accepted log failed: %v", err)
		}
		defer s2.Close()
		if got := signature(s2.DB()); got != sig {
			t.Fatalf("reopen diverged\nfirst:\n%s\nsecond:\n%s", sig, got)
		}
		if got := s2.DB().Epoch(); got < epoch {
			t.Fatalf("reopen epoch %d regressed below %d", got, epoch)
		}
	})
}
