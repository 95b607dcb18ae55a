package core

import (
	"testing"

	"ramcloud/internal/sim"
)

// BenchmarkBulkLoad builds the default 10-server cluster and bulk-loads
// 100K x 1 KB records, the set-up of every default scenario cell. Run it
// with -benchmem: B/op and allocs/op count what the masters' log and hash
// table cost to grow with their data.
func BenchmarkBulkLoad(b *testing.B) {
	const servers, records, size = 10, 100_000, 1024
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.New(1)
		cl := NewCluster(eng, DefaultProfile(), servers, 0)
		cl.Start()
		table := cl.CreateTable("usertable")
		cl.BulkLoad(table, records, size)
		var appends uint64
		for _, s := range cl.Servers {
			appends += s.Log().Appends()
		}
		if appends != records {
			b.Fatalf("masters appended %d records, want %d", appends, records)
		}
	}
}
