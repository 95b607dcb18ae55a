package main

import (
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"ramcloud/internal/realnode"
	"ramcloud/internal/transport"
)

const (
	masters   = 2
	tableName = "perfbench"
	loadBatch = 32 // keys per MultiWrite while loading
)

// cluster is an in-process coordinator and masters on loopback TCP,
// driven through one client. The client and masters run over a tap so
// the benchmark can count and time RPCs from outside the program.
type cluster struct {
	tap     *tap
	coord   *realnode.Coordinator
	servers []*realnode.Server
	client  *realnode.Client
	table   uint64
	data    dataset

	base [masters][2]uint64 // per-master (reads, writes) after loading
}

// bootCluster starts the coordinator and masters with default settings
// and creates a table spread over every master. Handlers are wrapped for
// timing only when traced is set, so an untraced run serves requests
// exactly as the program does.
func bootCluster(data dataset, traced bool) (*cluster, error) {
	tcp := &transport.TCP{}
	c := &cluster{tap: newTap(tcp), data: data}
	c.coord = realnode.NewCoordinator(tcp, realnode.CoordConfig{})
	if err := c.coord.Start("127.0.0.1:0"); err != nil {
		return nil, fmt.Errorf("start coordinator: %w", err)
	}
	var serverTr transport.Interface = tcp
	if traced {
		serverTr = c.tap
	}
	for i := 0; i < masters; i++ {
		s := realnode.NewServer(serverTr, c.coord.Addr(), realnode.ServerConfig{})
		if err := s.Start("127.0.0.1:0"); err != nil {
			c.stop()
			return nil, fmt.Errorf("start master %d: %w", i, err)
		}
		c.servers = append(c.servers, s)
	}
	c.client = realnode.NewClient(c.tap, c.coord.Addr(), realnode.ClientConfig{})
	table, err := c.client.CreateTable(tableName, masters)
	if err != nil {
		c.stop()
		return nil, fmt.Errorf("create table: %w", err)
	}
	c.table = table
	return c, nil
}

// load writes every record through MultiWrite from workers goroutines.
func (c *cluster) load(workers int) error {
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			keys := make([][]byte, 0, loadBatch)
			vals := make([][]byte, 0, loadBatch)
			flush := func() error {
				for i, r := range c.client.MultiWrite(c.table, keys, vals) {
					if r.Err != nil {
						return fmt.Errorf("load %s: %w", keys[i], r.Err)
					}
				}
				keys, vals = keys[:0], vals[:0]
				return nil
			}
			for rec := w; rec < c.data.records; rec += workers {
				keys = append(keys, c.data.key(make([]byte, 0, keyLen), rec))
				vals = append(vals, c.data.value(nil, rec))
				if len(keys) == loadBatch {
					if errs[w] = flush(); errs[w] != nil {
						return
					}
				}
			}
			if len(keys) > 0 {
				errs[w] = flush()
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for i, s := range c.servers {
		r, w, _, _ := s.Counters()
		c.base[i] = [2]uint64{r, w}
	}
	for k := range c.tap.items {
		c.tap.items[k].Store(0)
	}
	return nil
}

// setupTime is one set-up's wall and CPU seconds.
type setupTime struct{ wall, cpu float64 }

// setupSeconds reports the median wall and CPU seconds of the set-ups.
// setup_s is the CPU figure: it counts the work a set-up does, which is
// what moving work out of the measured phase would add, and it does not
// swing with the time other tenants take from a shared machine, as the
// wall figure does.
func setupSeconds(ts []setupTime) (wall, cpu float64) {
	var w, c []float64
	for _, t := range ts {
		w = append(w, t.wall)
		c = append(c, t.cpu)
	}
	return median(w), median(c)
}

func (c *cluster) stop() {
	if c.client != nil {
		c.client.Close()
	}
	for _, s := range c.servers {
		s.Stop()
	}
	c.coord.Stop()
}

// setUp boots and loads a cluster n times and keeps the last one. It
// returns the wall time and the process CPU time of each set-up.
// Earlier clusters are torn down and their memory returned before the
// next boots, so each set-up starts from the same state.
func setUp(n int, data dataset, traced bool, workers int) (*cluster, []setupTime, error) {
	var times []setupTime
	var c *cluster
	for i := 0; i < n; i++ {
		if c != nil {
			c.stop()
			c = nil
			debug.FreeOSMemory()
		}
		t0, cpu0 := time.Now(), processCPU()
		var err error
		if c, err = bootCluster(data, traced); err != nil {
			return nil, nil, err
		}
		if err := c.load(workers); err != nil {
			c.stop()
			return nil, nil, err
		}
		times = append(times, setupTime{wall: time.Since(t0).Seconds(), cpu: (processCPU() - cpu0).Seconds()})
	}
	return c, times, nil
}

// verify checks the cluster after the run: every record is still
// present exactly once, and the masters served exactly the reads and
// writes the tap saw the client send since loading finished.
func (c *cluster) verify() []string {
	var problems []string
	objects := 0
	var reads, writes uint64
	for i, s := range c.servers {
		objects += s.Objects()
		r, w, _, _ := s.Counters()
		reads += r - c.base[i][0]
		writes += w - c.base[i][1]
	}
	if objects != c.data.records {
		problems = append(problems, fmt.Sprintf("masters hold %d objects, want %d", objects, c.data.records))
	}
	sentReads := c.tap.items[kRead].Load() + c.tap.items[kMultiRead].Load()
	sentWrites := c.tap.items[kWrite].Load() + c.tap.items[kMultiWrite].Load()
	if reads != sentReads || writes != sentWrites {
		problems = append(problems, fmt.Sprintf("masters served %d reads/%d writes, client sent %d/%d",
			reads, writes, sentReads, sentWrites))
	}
	return problems
}

// masterShares reports each master's object count, to show the keys
// spread over both.
func (c *cluster) masterShares() []int {
	out := make([]int, len(c.servers))
	for i, s := range c.servers {
		out[i] = s.Objects()
	}
	return out
}
