// Package server implements a RAMCloud storage server: a master service
// (log-structured memory + hash table, serving reads and writes) collocated
// with a backup service (replica staging in DRAM, spill to disk) in a
// single process, sharing one dispatch thread and one worker pool — the
// arrangement whose contention effects the paper measures.
//
// Threading model, mirroring RAMCloud:
//
//   - One dispatch thread busy-polls the NIC. It permanently pins a core
//     (the paper's 25% CPU floor on 4-core nodes) and serializes request
//     hand-off at a fixed per-request cost.
//   - N worker threads (cores-1) execute requests. An idle worker spins
//     for Costs.SpinTimeout before sleeping, and the dispatch wakes the
//     most-recently-active worker first (cache affinity). Both choices are
//     what make CPU usage saturate long before throughput does (Finding 1).
//   - Writes serialize on the log head; queueing there inflates service
//     time quadratically (the "nanoscheduling" thrash of Finding 2).
//   - Replication requests from other masters run through the same
//     dispatch and worker pool, which is exactly why replication costs
//     client throughput (Finding 3).
package server

import (
	"fmt"

	"ramcloud/internal/hashtable"
	"ramcloud/internal/logstore"
	"ramcloud/internal/machine"
	"ramcloud/internal/rpc"
	"ramcloud/internal/sim"
	"ramcloud/internal/simdisk"
	"ramcloud/internal/simnet"
	"ramcloud/internal/wire"
)

// Server is one storage server process.
type Server struct {
	id   int32
	eng  *sim.Engine
	node *machine.Node
	net  *simnet.Network
	ep   *rpc.Endpoint
	disk *simdisk.Disk
	cfg  Config

	coordinator simnet.NodeID
	peers       []simnet.NodeID // all servers in the cluster (including self)
	deadPeers   map[simnet.NodeID]bool

	dead bool

	// Master state.
	log         *logstore.Log
	ht          *hashtable.Table
	logMu       *sim.Mutex
	tablets     []wire.Tablet
	frozen      []wire.Tablet // ranges mid-migration; ops answer StatusRetry
	nextVersion uint64
	replicas    map[uint64][]simnet.NodeID // segment id -> backup set

	// workQs holds one queue per worker. The dispatch thread routes each
	// client request to the worker owning its connection (hash of the
	// source), RAMCloud's cache-affinity scheduling: one active client
	// connection keeps exactly one worker spin-hot (Table I's +25% CPU
	// per client).
	workQs []*sim.Queue[rpc.Request]

	// backupQ feeds the backup service thread, which handles the whole
	// replication and recovery plane. Keeping it off the client workers
	// prevents replication RPCs from convoying behind a worker that is
	// itself blocked waiting for acks; its CPU still lands on the same
	// node, which is the contention the paper measures (Finding 3).
	backupQ *sim.Queue[rpc.Request]

	// Backup state.
	openReplicas   map[replicaKey]*replica
	sealedReplicas map[int32]map[uint64]*replica
	flushQ         *sim.Queue[*replica]
	recoveryReads  map[replicaKey]bool // segments already read from disk this recovery

	// recoveryActive > 0 while this node replays a partition.
	recoveryActive int

	// registry resolves peer addresses for zero-time bulk loading.
	registry Registry

	stats Stats
}

type replicaKey struct {
	master  int32
	segment uint64
}

// replica is one segment replica held by the backup role.
type replica struct {
	key     replicaKey
	objects []wire.Object
	bytes   int
	sealed  bool
	onDisk  bool
}

// New creates a server on the given node and attaches it to the fabric.
// Call Start to launch its dispatch and worker procs.
func New(e *sim.Engine, node *machine.Node, net *simnet.Network, disk *simdisk.Disk,
	coordinator simnet.NodeID, cfg Config) *Server {
	if cfg.Workers < 1 {
		panic("server: need at least one worker")
	}
	if cfg.Workers+1 > node.Spec.Cores {
		panic(fmt.Sprintf("server: %d workers + dispatch exceed %d cores", cfg.Workers, node.Spec.Cores))
	}
	s := &Server{
		id:             int32(node.ID),
		eng:            e,
		node:           node,
		net:            net,
		disk:           disk,
		cfg:            cfg,
		coordinator:    coordinator,
		deadPeers:      make(map[simnet.NodeID]bool),
		log:            logstore.NewLog(cfg.Log),
		ht:             hashtable.New(1 << 16),
		logMu:          sim.NewMutex(e),
		replicas:       make(map[uint64][]simnet.NodeID),
		openReplicas:   make(map[replicaKey]*replica),
		sealedReplicas: make(map[int32]map[uint64]*replica),
		flushQ:         sim.NewQueue[*replica](e),
		recoveryReads:  make(map[replicaKey]bool),
	}
	for i := 0; i < cfg.Workers; i++ {
		s.workQs = append(s.workQs, sim.NewQueue[rpc.Request](e))
	}
	s.backupQ = sim.NewQueue[rpc.Request](e)
	s.ep = rpc.NewEndpoint(e, net, simnet.NodeID(node.ID))
	return s
}

// ID returns the server's cluster id (== its node id).
func (s *Server) ID() int32 { return s.id }

// Addr returns the server's fabric address.
func (s *Server) Addr() simnet.NodeID { return s.ep.Node() }

// Stats exposes the server's counters.
func (s *Server) Stats() *Stats { return &s.stats }

// Log exposes the master's log (for verification in tests and tools).
func (s *Server) Log() *logstore.Log { return s.log }

// SetPeers tells the server which nodes can host its replicas. The list
// may include the server itself; selection always excludes self.
func (s *Server) SetPeers(peers []simnet.NodeID) {
	s.peers = append([]simnet.NodeID(nil), peers...)
}

// Start launches the dispatch thread (pinning one core) and the worker and
// flush procs.
func (s *Server) Start() {
	s.node.PinCores(1)
	s.eng.Go(fmt.Sprintf("srv%d-dispatch", s.id), s.dispatchLoop)
	for i := 0; i < s.cfg.Workers; i++ {
		i := i
		s.eng.Go(fmt.Sprintf("srv%d-worker%d", s.id, i), func(p *sim.Proc) {
			s.workerLoop(p, s.workQs[i])
		})
	}
	s.eng.Go(fmt.Sprintf("srv%d-backupsvc", s.id), func(p *sim.Proc) {
		s.workerLoop(p, s.backupQ)
	})
	s.eng.Go(fmt.Sprintf("srv%d-flush", s.id), s.flushLoop)
	if s.cfg.CleanerThreshold > 0 {
		s.eng.Go(fmt.Sprintf("srv%d-cleaner", s.id), s.cleanerLoop)
	}
}

// Kill crashes the server process: the NIC goes silent, accounting stops,
// and service procs exit at their next scheduling point. In-flight
// requests are lost, exactly like a process kill.
func (s *Server) Kill() {
	s.dead = true
	s.node.Kill()
	s.net.SetDown(s.ep.Node(), true)
	// Wake parked procs with poison pills so they exit.
	for _, q := range s.workQs {
		q.Push(rpc.Request{})
	}
	s.backupQ.Push(rpc.Request{})
	s.ep.Inbound.Push(rpc.Request{})
	s.flushQ.Push(nil)
}

// Dead reports whether the server was killed.
func (s *Server) Dead() bool { return s.dead }

// dispatchLoop is the polling thread: it serializes inbound requests onto
// the worker queue at a fixed per-request cost. Its CPU is covered by the
// pinned core.
func (s *Server) dispatchLoop(p *sim.Proc) {
	for {
		req := s.ep.Inbound.Pop(p)
		if s.dead {
			return
		}
		p.Sleep(s.cfg.Costs.Dispatch)
		if s.recoveryActive > 0 && s.cfg.Costs.RecoveryPenalty > 0 {
			// Recovery traffic (segment fetches, re-replication, replay
			// bookkeeping) competes for the dispatch thread; foreground
			// requests pay the paper's 1.4-2.4x latency inflation.
			p.Sleep(s.cfg.Costs.RecoveryPenalty)
		}
		if s.dead {
			return
		}
		switch m := req.Msg.(type) {
		case *wire.ReadReq, *wire.WriteReq, *wire.DeleteReq,
			*wire.MultiReadReq, *wire.MultiWriteReq:
			s.workQs[connWorker(req.From, len(s.workQs))].Push(req)
		case *wire.RDMAWriteReq:
			// One-sided RDMA write: the NIC deposits the objects into the
			// replica buffer with no thread involvement; the completion
			// is generated immediately (Sec. IX.B proposal).
			s.applyRDMAWrite(m)
			s.ep.Reply(req, &wire.RDMAWriteResp{Status: wire.StatusOK})
		default:
			s.backupQ.Push(req)
		}
	}
}

// connWorker maps a connection to its affine worker.
func connWorker(from simnet.NodeID, workers int) int {
	h := uint64(from) * 0x9E3779B97F4A7C15
	return int(h % uint64(workers))
}

// workerLoop services requests from this worker's queue. Idle workers
// spin for SpinTimeout before sleeping; the spin is accounted
// optimistically and corrected when work arrives earlier.
func (s *Server) workerLoop(p *sim.Proc, workQ *sim.Queue[rpc.Request]) {
	spin := s.cfg.Costs.SpinTimeout
	for {
		t0 := p.Now()
		if !s.dead && spin > 0 {
			s.node.AddBusy(t0, t0.Add(spin))
		}
		req := workQ.Pop(p)
		if s.dead {
			return
		}
		if waited := p.Now().Sub(t0); waited < spin {
			s.node.SubBusy(p.Now(), t0.Add(spin))
		}
		s.serve(p, req)
		if s.dead {
			return
		}
	}
}

// busy burns worker CPU: the span is accounted on the node and simulated
// time advances.
func (s *Server) busy(p *sim.Proc, d sim.Duration) {
	if d <= 0 {
		return
	}
	now := p.Now()
	s.node.AddBusy(now, now.Add(d))
	p.Sleep(d)
}

// lockWithSpin acquires mu, accounting up to SpinTimeout of the wait as
// CPU burn: a worker contending for the log head spins and context-
// switches rather than idling, which is what drives the paper's power
// increase under update-heavy load (Fig. 4a).
func (s *Server) lockWithSpin(p *sim.Proc, mu *sim.Mutex) {
	spin := s.cfg.Costs.SpinTimeout
	t0 := p.Now()
	if !s.dead && spin > 0 && mu.Locked() {
		s.node.AddBusy(t0, t0.Add(spin))
	} else {
		spin = 0
	}
	mu.Lock(p)
	if spin > 0 {
		if waited := p.Now().Sub(t0); waited < spin {
			s.node.SubBusy(p.Now(), t0.Add(spin))
		}
	}
}

// interference returns the service-cost multiplier: >1 while a recovery
// replay is running on this node.
func (s *Server) interference() float64 {
	if s.recoveryActive > 0 {
		return s.cfg.Costs.InterferenceFactor
	}
	return 1
}

// serve executes one request on a worker.
func (s *Server) serve(p *sim.Proc, req rpc.Request) {
	switch m := req.Msg.(type) {
	case *wire.ReadReq:
		s.serveRead(p, req, m)
	case *wire.WriteReq:
		s.serveWrite(p, req, m)
	case *wire.DeleteReq:
		s.serveDelete(p, req, m)
	case *wire.MultiReadReq:
		s.serveMultiRead(p, req, m)
	case *wire.MultiWriteReq:
		s.serveMultiWrite(p, req, m)
	case *wire.OpenSegmentReq:
		s.serveOpenSegment(p, req, m)
	case *wire.ReplicateReq:
		s.serveReplicate(p, req, m)
	case *wire.CloseSegmentReq:
		s.serveCloseSegment(p, req, m)
	case *wire.FreeReplicasReq:
		s.serveFreeReplicas(p, req, m)
	case *wire.SegmentInventoryReq:
		s.serveInventory(p, req, m)
	case *wire.GetRecoveryDataReq:
		s.serveGetRecoveryData(p, req, m)
	case *wire.RecoverReq:
		s.serveRecover(p, req, m)
	case *wire.MigrateTabletReq:
		s.serveMigrateTablet(req, m)
	case *wire.TakeTabletReq:
		s.serveTakeTablet(p, req, m)
	case *wire.PingReq:
		s.ep.Reply(req, &wire.PingResp{Seq: m.Seq})
	case nil:
		// poison pill from Kill
	default:
		panic(fmt.Sprintf("server %d: unexpected request %T", s.id, req.Msg))
	}
}

// aliveBackupCandidates returns peers that can host a replica: not self,
// not known dead.
func (s *Server) aliveBackupCandidates() []simnet.NodeID {
	out := make([]simnet.NodeID, 0, len(s.peers))
	for _, id := range s.peers {
		if id != s.ep.Node() && !s.deadPeers[id] && !s.net.IsDown(id) {
			out = append(out, id)
		}
	}
	return out
}
