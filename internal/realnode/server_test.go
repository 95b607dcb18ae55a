package realnode

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"ramcloud/internal/wire"
	"ramcloud/internal/ycsb"
)

// newOwningServer returns a master that owns all of table 1 and serves
// requests handed straight to serve, with no transport or coordinator.
func newOwningServer() *Server {
	s := NewServer(nil, "", ServerConfig{})
	s.serve("", &wire.AssignTabletsReq{Tablets: []wire.Tablet{{Table: 1, EndHash: ^uint64(0)}}})
	return s
}

// TestServerReadsSurviveOverwriteAndDelete pins the read-aliasing
// invariant: a read response carries the log's own value bytes, so a
// later overwrite or delete of the key must leave every earlier
// response holding the original bytes.
func TestServerReadsSurviveOverwriteAndDelete(t *testing.T) {
	s := newOwningServer()
	key := []byte("user1")
	orig := []byte("original-value")
	if r := s.serve("", &wire.WriteReq{Table: 1, Key: key, ValueLen: uint32(len(orig)), Value: bytes.Clone(orig)}).(*wire.WriteResp); r.Status != wire.StatusOK {
		t.Fatalf("write: %v", r.Status)
	}
	read := s.serve("", &wire.ReadReq{Table: 1, Key: key}).(*wire.ReadResp)
	multi := s.serve("", &wire.MultiReadReq{Items: []wire.MultiReadItem{{Table: 1, Key: key}}}).(*wire.MultiReadResp)
	if read.Status != wire.StatusOK || multi.Items[0].Status != wire.StatusOK {
		t.Fatalf("reads: %v / %v", read.Status, multi.Items[0].Status)
	}

	over := bytes.Repeat([]byte{'X'}, len(orig))
	s.serve("", &wire.WriteReq{Table: 1, Key: key, ValueLen: uint32(len(over)), Value: over})
	s.serve("", &wire.MultiWriteReq{Items: []wire.MultiWriteItem{{Table: 1, Key: key, ValueLen: uint32(len(over)), Value: bytes.Clone(over)}}})
	if r := s.serve("", &wire.DeleteReq{Table: 1, Key: key}).(*wire.DeleteResp); r.Status != wire.StatusOK {
		t.Fatalf("delete: %v", r.Status)
	}
	if r := s.serve("", &wire.ReadReq{Table: 1, Key: key}).(*wire.ReadResp); r.Status != wire.StatusUnknownKey {
		t.Fatalf("read after delete: %v, want UNKNOWN_KEY", r.Status)
	}

	if !bytes.Equal(read.Value, orig) {
		t.Errorf("ReadResp value became %q, want %q", read.Value, orig)
	}
	if !bytes.Equal(multi.Items[0].Value, orig) {
		t.Errorf("MultiReadResp value became %q, want %q", multi.Items[0].Value, orig)
	}
}

// TestClusterReadsSurviveOverwriteAndDelete checks the same invariant
// end to end: values returned by Get and MultiRead keep their bytes
// after the key is overwritten and deleted.
func TestClusterReadsSurviveOverwriteAndDelete(t *testing.T) {
	_, _, client := bootCluster(t, 2)
	table, err := client.CreateTable("alias", 2)
	if err != nil {
		t.Fatalf("create table: %v", err)
	}
	key := ycsb.Key(7)
	orig := []byte("original-value")
	if _, err := client.Put(table, key, orig); err != nil {
		t.Fatalf("put: %v", err)
	}
	got, _, err := client.Get(table, key)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	multi := client.MultiRead(table, [][]byte{key})
	if multi[0].Err != nil {
		t.Fatalf("multiread: %v", multi[0].Err)
	}
	if _, err := client.Put(table, key, []byte("overwritten!!!")); err != nil {
		t.Fatalf("overwrite: %v", err)
	}
	if err := client.Delete(table, key); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, _, err := client.Get(table, key); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get after delete: %v, want ErrNotFound", err)
	}
	if !bytes.Equal(got, orig) || !bytes.Equal(multi[0].Value, orig) {
		t.Fatalf("earlier reads changed: Get %q, MultiRead %q, want %q", got, multi[0].Value, orig)
	}
}

// Master micro-benchmarks: one 32 x 1 KB batch per iteration against a
// loaded master, run the way the TCP listener runs a request — decode
// the frame, serve, encode the response — with no sockets. B/op and
// allocs/op are the canary for copies on the value path.
const (
	benchRecords = 4096
	benchBatch   = 32
	benchValueSz = 1024
	benchFrames  = 64
)

func benchValue(rec, round int) []byte {
	v := make([]byte, benchValueSz)
	for i := range v {
		v[i] = byte(rec + round + i)
	}
	return v
}

// newLoadedServer returns an owning master holding benchRecords values.
func newLoadedServer() *Server {
	s := newOwningServer()
	for lo := 0; lo < benchRecords; lo += benchBatch {
		items := make([]wire.MultiWriteItem, benchBatch)
		for j := range items {
			items[j] = wire.MultiWriteItem{Table: 1, Key: ycsb.Key(lo + j), ValueLen: benchValueSz, Value: benchValue(lo+j, 0)}
		}
		s.serve("", &wire.MultiWriteReq{Items: items})
	}
	return s
}

// benchFrameSet marshals benchFrames batches of uniformly chosen records.
func benchFrameSet(b *testing.B, mk func(rng *rand.Rand) wire.Message) [][]byte {
	rng := rand.New(rand.NewSource(1))
	frames := make([][]byte, benchFrames)
	for i := range frames {
		f, err := wire.Marshal(wire.Envelope{RPCID: uint64(i), Msg: mk(rng)})
		if err != nil {
			b.Fatal(err)
		}
		frames[i] = f
	}
	return frames
}

// benchServe serves frames round robin. When reset is positive the
// master is rebuilt, off the clock, every reset iterations, so a write
// benchmark's ever-growing log stays bounded in memory.
func benchServe(b *testing.B, frames [][]byte, reset int) {
	s := newLoadedServer()
	var out []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if reset > 0 && i > 0 && i%reset == 0 {
			b.StopTimer()
			s = newLoadedServer()
			b.StartTimer()
		}
		env, err := wire.Unmarshal(frames[i%len(frames)])
		if err != nil {
			b.Fatal(err)
		}
		resp := s.serve("bench", env.Msg)
		if out, err = wire.AppendEnvelope(out[:0], wire.Envelope{RPCID: env.RPCID, Msg: resp}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkServerMultiRead(b *testing.B) {
	frames := benchFrameSet(b, func(rng *rand.Rand) wire.Message {
		items := make([]wire.MultiReadItem, benchBatch)
		for j := range items {
			items[j] = wire.MultiReadItem{Table: 1, Key: ycsb.Key(rng.Intn(benchRecords))}
		}
		return &wire.MultiReadReq{Items: items}
	})
	benchServe(b, frames, 0)
}

func BenchmarkServerMultiWrite(b *testing.B) {
	frames := benchFrameSet(b, func(rng *rand.Rand) wire.Message {
		items := make([]wire.MultiWriteItem, benchBatch)
		for j := range items {
			rec := rng.Intn(benchRecords)
			items[j] = wire.MultiWriteItem{Table: 1, Key: ycsb.Key(rec), ValueLen: benchValueSz, Value: benchValue(rec, 1)}
		}
		return &wire.MultiWriteReq{Items: items}
	})
	// 2048 batches keep about 64 MB of values in the log.
	benchServe(b, frames, 2048)
}
