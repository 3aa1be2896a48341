// Package storage is the shared storage-path core behind every parallel
// file system model in the repository. Intrepid's GPFS and PVFS volumes (and
// any ION-side burst buffer layered above them) share the same physical
// path — compute node -> pset tree funnel -> ION -> 10 GbE -> file servers —
// and the same mechanisms: block/stripe math over a striped server array,
// per-server FIFO queues, per-client stream pipes, and the seeded heavy-tail
// noise model of a shared, multi-user storage system.
//
// What the paper's results hinge on is not that mechanism but *policy*
// (Section V-C1): GPFS serializes creates at one metadata server and grants
// byte-range tokens at a file's metanode, while PVFS hashes metadata across
// servers and takes no locks at all; GPFS write-behind caches on the ION
// while PVFS commits synchronously. The core therefore exposes three policy
// seams:
//
//   - Metadata: how namespace operations queue and what they cost
//     (CentralizedMDS vs HashedMDS).
//   - Concurrency: what a writer must acquire before data moves
//     (TokenManager vs LockFree).
//   - DataPath: how a delivered write reaches the servers and how much of
//     that the caller perceives (BlockPipeline's ION write-behind vs
//     StripeSync's synchronous commit; internal/bbuf adds a burst-buffer
//     path through the same seam).
//
// A backend is a Config plus a composition of one policy per seam; it
// contains no storage-path mechanism of its own. This package registers the
// two Intrepid volumes with fsys; internal/bbuf adds the burst buffer.
//
// GPFS (NewGPFS) composes CentralizedMDS, TokenManager and a write-behind
// BlockPipeline: files block-striped across NSD servers, a metadata server
// whose create cost grows with directory population, a per-file byte-range
// token manager, per-client streaming limits and an ION-side write-behind
// cache. It reproduces the queueing behaviours that dominate the paper's
// results:
//
//   - 1PFPP's collapse: np file creates in one directory serialize at the
//     metadata server, with per-create cost growing with the directory's
//     entry count (directory-block scanning and locking).
//   - nf=1's penalty: every block token for a shared file is granted by that
//     file's metanode serially, so tens of thousands of token requests
//     against a single file serialize; unaligned writes additionally revoke
//     tokens held by other clients.
//   - The nf sweep: few files mean few client streams (each capped by the
//     per-stream pipeline bandwidth); many files mean many creates and more
//     exposure to noise.
//   - The 64K coIO drop: heavy-tail service-time spikes whose probability
//     grows with the number of concurrently writing clients.
//
// PVFS (NewPVFS) is the lock-free alternative the paper wanted to compare
// GPFS against (Section V-C1) but could not measure fairly because
// client-side caching "was (and still is) turned off on PVFS". It differs
// from GPFS exactly where the real systems differ, in policy:
//
//   - No byte-range locks (LockFree): applications are responsible for
//     non-conflicting writes, so the nf=1 token-serial penalty does not
//     exist.
//   - No client/ION write-behind cache (StripeSync): every write blocks for
//     the full commit, so writers cannot overlap commits with their next
//     aggregation round.
//   - Distributed metadata (HashedMDS): a create storm spreads over
//     NumServers queues instead of thrashing one metadata server, so 1PFPP
//     degrades far more gracefully, at the price of synchronous writes.
//
// Determinism contract: the core performs RNG splits and draws in a fixed
// order (the metadata jitter stream first, then one stream per server, in
// server order; one Float64 per server request and a Pareto draw only on a
// spike), so a backend composed over it reproduces the pre-refactor
// gpfs/pvfs timings bit for bit.
package storage

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/data"
	"repro/internal/fabric"
	"repro/internal/fault"
	"repro/internal/fsys"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// Config holds the mechanism parameters of the shared storage path.
// Bandwidths are bytes/s, times are seconds.
type Config struct {
	// BlockSize is the striping (and, where a lock policy applies, locking)
	// granularity: the GPFS file system block or the PVFS stripe unit.
	BlockSize  int64
	NumServers int     // striped file servers
	ServerBW   float64 // per-server bandwidth available to this application

	// ClientStreamBW caps the throughput of one client writing one file:
	// the bounded flush pipeline between a rank's ION proxy and the servers.
	ClientStreamBW float64

	// NoiseProb is the base probability that a server request suffers a
	// heavy-tail delay of the shared, multi-user storage system; the noise
	// constants below shape it.
	NoiseProb float64
}

// serverLat is the per-request server latency, seconds.
const serverLat float64 = 2e-3

// The noise model: a server request suffers a Pareto delay with probability
// NoiseProb amplified by the number of distinct clients in the current I/O
// burst, p = NoiseProb * min((clients/noiseConcRef)^noiseGamma, noiseMaxFactor).
const (
	noiseAlpha     float64 = 1.9  // Pareto tail index of the spike size
	noiseScale     float64 = 0.3  // Pareto scale (minimum spike), seconds
	noiseConcRef   float64 = 5000 // client-count knee of the amplification
	noiseGamma     float64 = 8    // steepness of the knee
	noiseMaxFactor float64 = 20   // cap on the amplification
)

// DefaultConfig returns Intrepid's shared storage hardware, the same DDN
// arrays behind every backend: 128 file servers giving this application
// 140 MB/s each under normal load (~18 GB/s aggregate) at 2 ms per request,
// and the shared system's heavy-tail noise. 128 servers handle a few
// thousand concurrent clients gracefully; beyond that knee interference
// grows sharply — the paper's explanation for coIO's 64K drop (8K
// aggregators) while rbIO (1K writers) stays clean. A backend sets
// BlockSize and ClientStreamBW on top.
func DefaultConfig() Config {
	return Config{
		NumServers: 128,
		ServerBW:   140e6,
		NoiseProb:  0.0015,
	}
}

// Validate checks the mechanism configuration.
func (c Config) Validate() error {
	if c.BlockSize <= 0 {
		return fmt.Errorf("storage: block size must be positive")
	}
	if c.NumServers <= 0 {
		return fmt.Errorf("storage: need at least one server")
	}
	if c.ServerBW <= 0 || c.ClientStreamBW <= 0 {
		return fmt.Errorf("storage: bandwidths must be positive")
	}
	return nil
}

// Backend is the policy composition that turns the core into a concrete
// file system model. The name also prefixes the namespace errors the core
// returns (fsys.ErrNotExist and friends), e.g. "gpfs: file does not exist".
type Backend struct {
	Name        string // fsys.System name ("gpfs", "pvfs", "bbuf")
	ServerName  string // per-server pipe name prefix ("nsd", "pvfs", "bbsrv"), diagnostics only
	Metadata    Metadata
	Concurrency Concurrency
	Data        DataPath
}

// Metadata is the metadata-service policy: which queue a namespace op
// waits in and what it costs. The core's file op waits (DESIGN §7): it
// queues, reads the service time once it reached the head, holds the
// queue for it, releases it, and spends the scan time, if any, after; the
// core performs the namespace mutation itself afterwards.
type Metadata interface {
	// Queue returns the queue op on path waits in.
	Queue(c *Core, op MetaOp, path string) *sim.Resource
	// Service returns op's service time at the head of q: it sees the
	// queue the op leaves behind and draws its jitter in head order.
	Service(c *Core, op MetaOp, q *sim.Resource) float64
	// Scan returns the time op spends after it left the queue, drawn
	// then, and false when it spends none.
	Scan(c *Core, op MetaOp, path string) (float64, bool)
}

// MetaOp is a namespace operation.
type MetaOp uint8

// The namespace operations.
const (
	MetaCreate MetaOp = iota
	MetaOpen
	MetaClose
)

// Concurrency is the concurrency-control policy: what a writer acquires
// before its data may move toward the servers. The core's file op waits
// out the LockWait AcquireWrite returns and then calls Granted.
type Concurrency interface {
	// AcquireWrite returns what rank must hold before it writes [off,
	// off+n) of f; the zero LockWait asks for nothing.
	AcquireWrite(c *Core, rank int, f *File, off, n int64) LockWait
	// Granted records what the writer acquired once it held w.Q for
	// w.Service, and releases w.Q.
	Granted(c *Core, rank int, f *File, off, n int64, w LockWait)
}

// LockWait is what a writer waits on before its data may move: Q, held
// for Service seconds once the writer reached its head. Q nil asks for
// nothing.
type LockWait struct {
	Q       *sim.Resource
	Service float64

	grants, revokes int // the token policy's counts, taken as the write arrived
}

// DataPath is the write-path caching policy. Commit schedules the
// storage-side commits of a write whose client stream finishes delivering at
// streamEnd and returns the wait that charges the caller's perceived
// blocking (called by the core after the payload is recorded); the wait's
// error is a typed server-unavailability failure for synchronous paths
// (write-behind paths record it on the handle for Close to surface). Read
// charges the server->ION->compute-node return path of a read.
type DataPath interface {
	Commit(c *Core, h *Handle, rank int, streamEnd float64, off, n int64) Wait
	Read(p *sim.Proc, c *Core, h *Handle, rank int, off, n int64) error
}

// Wait is a write's perceived blocking: until Until, then, on a cache-off
// block pipeline, until every block of the call landed. Err is the
// write's error; the block pipeline's call carries its own.
type Wait struct {
	Until float64
	Err   error
	call  *blockCall // the cache-off call whose blocks the caller waits out, else nil
}

// Core is one mounted file system model: the shared mechanism plus the
// backend's policies. It implements fsys.System.
type Core struct {
	m   *machine.Machine
	cfg Config

	name string
	meta Metadata
	lock Concurrency
	path DataPath

	servers []*Server
	mdsRNG  *xrand.RNG

	// Fault injection, attached by EnableFaults; nil faults means every
	// PlanServer query short-circuits to the home server untouched.
	faults *fault.Injector
	frng   *xrand.RNG

	files      map[string]*File
	dirEntries map[string]int
	fileSeq    int

	activeCommits int              // storage requests in flight
	burstClients  map[int]struct{} // distinct ranks writing in the current burst
	lastIssue     float64          // time of the most recent write issue

	// Pools of the file ops and block-pipeline calls in flight. Storage
	// runs on one lane at a time (the exclusive one when sharded), so
	// one pool per mount serves every caller.
	ops   []*fileOp
	calls []*blockCall

	// Tracing: the kernel's recorder, cached at mount; nil disables every
	// instrumentation point at the cost of one pointer compare.
	rec      *trace.Recorder
	recLayer trace.Layer

	// Stats aggregates observable file system activity.
	Stats Stats
}

// StatsProvider is implemented by any fsys.System whose counters are the
// shared storage-core Stats; the experiment layer uses it to read a
// mounted backend's counters without knowing the concrete type.
type StatsProvider interface {
	StorageStats() *Stats
}

// StorageStats returns the live storage-core counters.
func (c *Core) StorageStats() *Stats { return &c.Stats }

// Recorder returns the trace recorder the core was mounted with (nil when
// tracing is off) and the layer its events carry, for policy code that
// emits its own spans.
func (c *Core) Recorder() (*trace.Recorder, trace.Layer) { return c.rec, c.recLayer }

var _ fsys.System = (*Core)(nil)

// Stats aggregates observable file system activity. Fields that a backend's
// policies never touch (token counters on a lock-free backend, for example)
// simply stay zero.
type Stats struct {
	Creates      int
	Opens        int
	Closes       int
	TokenGrants  int
	TokenRevokes int
	BytesWritten int64
	BytesRead    int64
	NoiseSpikes  int

	// Fault-handling activity (all zero in a fault-free run).
	Retries      int     // unresponsive-server probe attempts
	Failovers    int     // blocks redirected to a surviving server
	CommitErrors int     // operations that exhausted the retry budget
	FaultDelay   float64 // total detection/backoff time charged, seconds
}

// Server is one striped file server: a FIFO pipe plus its own noise stream.
type Server struct {
	pipe *fabric.Pipe
	rng  *xrand.RNG
}

// File is one file of the model: striping offset, sparse contents, token
// state for lock policies, and the per-client stream pipes.
type File struct {
	name    string
	stripe  int                  // striping offset so files start on different servers
	tokens  map[int64]int        // block index -> owning client (pset/ION id); nil until a token is granted
	tokenQ  *sim.Resource        // the file's metanode serializes token grants; nil until a write needs one
	store   fsys.Store           // sparse real/synthetic contents
	streams map[int]*fabric.Pipe // per-client stream pipes, nil until the first write
}

// Stream returns the client's streaming pipe for the file, modelling the
// bounded per-stream flush pipeline of one client writing one file.
func (f *File) Stream(client int, bw float64) *fabric.Pipe {
	s, ok := f.streams[client]
	if !ok {
		if f.streams == nil {
			f.streams = make(map[int]*fabric.Pipe)
		}
		s = fabric.NewPipe(f.name+"/c"+strconv.Itoa(client), 0, bw)
		f.streams[client] = s
	}
	return s
}

// New mounts a file system model on the machine: the mechanism from cfg,
// the policies from the backend. The RNG split order (metadata stream, then
// one stream per server) is part of the determinism contract.
func New(m *machine.Machine, cfg Config, b Backend) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if b.Metadata == nil || b.Concurrency == nil || b.Data == nil {
		return nil, fmt.Errorf("storage: backend %q missing a policy", b.Name)
	}
	c := &Core{
		m:            m,
		cfg:          cfg,
		name:         b.Name,
		meta:         b.Metadata,
		lock:         b.Concurrency,
		path:         b.Data,
		mdsRNG:       m.RNG.Split(),
		files:        make(map[string]*File),
		dirEntries:   make(map[string]int),
		burstClients: make(map[int]struct{}),
	}
	c.servers = make([]*Server, cfg.NumServers)
	for i := range c.servers {
		c.servers[i] = &Server{
			pipe: fabric.NewPipe(fmt.Sprintf("%s%d", b.ServerName, i), serverLat, cfg.ServerBW),
			rng:  m.RNG.Split(),
		}
	}
	if rec := m.K.Recorder(); rec != nil {
		c.rec = rec
		c.recLayer = trace.LayerStorage
		if b.Name == "bbuf" {
			c.recLayer = trace.LayerBBuf
		}
		for i, s := range c.servers {
			s.pipe.Instrument(rec, trace.LayerStorage, "server.write", i)
		}
	}
	return c, nil
}

// Name implements fsys.System.
func (c *Core) Name() string { return c.name }

// Machine returns the machine the file system is mounted on.
func (c *Core) Machine() *machine.Machine { return c.m }

// Kernel returns the simulation kernel.
func (c *Core) Kernel() *sim.Kernel { return c.m.K }

// BlockSize implements fsys.System: the striping/locking granularity.
func (c *Core) BlockSize() int64 { return c.cfg.BlockSize }

// Servers returns the striped server array.
func (c *Core) Servers() []*Server { return c.servers }

// DirEntries returns the population of a directory, read at service time by
// directory-scanning metadata policies.
func (c *Core) DirEntries(dir string) int { return c.dirEntries[dir] }

// MDSJitter draws one sample of the mild OS-level jitter multiplier applied
// to metadata service times. Exactly one mdsRNG draw per call.
func (c *Core) MDSJitter() float64 { return 1 + 0.25*c.mdsRNG.Float64() }

// DirOf returns the directory component of a path.
func DirOf(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[:i]
	}
	return "."
}

// ExpressCutoff is the message size up to which tree-network transfers
// interleave with bulk traffic at packet granularity (control messages,
// headers) instead of queueing behind whole bulk messages.
const ExpressCutoff = 256 << 10

// ShipToION charges the syscall-shipping cost from a compute rank to its
// I/O node over the pset's collective-network funnel. Control-sized
// messages ride the express path.
func (c *Core) ShipToION(p *sim.Proc, rank int, size int64) {
	p.SleepUntil(c.funnelIn(p, rank, size))
}

// funnelIn charges a write payload's cut-through of the pset funnel and
// returns its delivery time at the ION. The funnel's occupancy still
// contends with the pset's other traffic, but a large write is not
// store-and-forwarded whole.
func (c *Core) funnelIn(p *sim.Proc, rank int, size int64) float64 {
	pipe := c.m.Tree.Pset(c.m.PsetOfRank(rank))
	if size <= ExpressCutoff {
		_, end := pipe.TransferExpress(p.Now(), size)
		return end
	}
	_, end := pipe.Transfer(p.Now(), size)
	return end
}

// NoiseFactor returns the burst-concurrency amplification of the spike
// probability at the current moment.
func (c *Core) NoiseFactor() float64 {
	x := float64(len(c.burstClients)) / noiseConcRef
	f := 1.0
	for i := 0.0; i < noiseGamma; i++ {
		f *= x
	}
	if f > noiseMaxFactor {
		f = noiseMaxFactor
	}
	if f < 1 {
		f = 1
	}
	return f
}

// SpikeProb returns the amplified spike probability at the current moment.
func (c *Core) SpikeProb() float64 { return c.cfg.NoiseProb * c.NoiseFactor() }

// DrawSpike samples the server's noise stream once against prob and returns
// the heavy-tail delay to add (0 for no spike), updating the noise counters.
func (c *Core) DrawSpike(srv *Server, prob float64) float64 {
	if srv.rng.Float64() < prob {
		spike := srv.rng.Pareto(noiseScale, noiseAlpha)
		c.Stats.NoiseSpikes++
		return spike
	}
	return 0
}

// burstIdleGap is how long the storage side must stay idle before the
// current I/O burst is considered over and its client set resets. Short
// lulls between the synchronized per-field commits of one checkpoint do not
// end the burst.
const burstIdleGap = 5.0

// TrackBurst registers rank as a client of the current I/O burst; the
// matching ScheduleDrain is issued by the data path once the
// commit-completion time is known.
func (c *Core) TrackBurst(rank int) {
	c.burstClients[rank] = struct{}{}
	c.activeCommits++
	c.lastIssue = c.m.K.Now()
}

// ScheduleDrain retires one in-flight commit at time t; if the storage side
// then stays idle past the burst gap, the burst's client set resets.
func (c *Core) ScheduleDrain(t float64) { c.m.K.AtHook(t, (*commitRetire)(c)) }

// commitRetire is the core as the hook that retires one in-flight commit.
type commitRetire Core

func (h *commitRetire) Fire() {
	c := (*Core)(h)
	c.activeCommits--
	if c.activeCommits > 0 {
		return
	}
	c.m.K.AfterHook(burstIdleGap, (*burstEnd)(c))
}

// burstEnd is the core as the hook that ends the I/O burst once the
// storage side stayed idle past the burst gap.
type burstEnd Core

func (h *burstEnd) Fire() {
	c := (*Core)(h)
	if c.activeCommits == 0 && c.m.K.Now()-c.lastIssue >= burstIdleGap {
		clear(c.burstClients)
	}
}

func (c *Core) newFile(path string) *File {
	f := &File{name: path, stripe: c.fileSeq}
	c.fileSeq++
	return f
}

// errClosed reports a use of a closed handle: "gpfs: handle is closed".
func (c *Core) errClosed() error { return fmt.Errorf("%s: %w", c.name, fsys.ErrClosed) }

// Create implements fsys.System. The cost includes shipping the request
// through the rank's pset funnel and whatever queueing the metadata policy
// models; the namespace mutation itself is mechanism.
func (c *Core) Create(p *sim.Proc, rank int, path string) (h fsys.Handle, err error) {
	p.AwaitNow(c.StartCreate(p, rank, path, &h, &err))
	return h, err
}

// StartCreate implements fsys.System.
func (c *Core) StartCreate(p *sim.Proc, rank int, path string, h *fsys.Handle, err *error) sim.Cont {
	o := c.startOp(p, opCreate, rank, err)
	o.path, o.hout = path, h
	return o
}

// Open implements fsys.System.
func (c *Core) Open(p *sim.Proc, rank int, path string) (h fsys.Handle, err error) {
	p.AwaitNow(c.StartOpen(p, rank, path, &h, &err))
	return h, err
}

// StartOpen implements fsys.System.
func (c *Core) StartOpen(p *sim.Proc, rank int, path string, h *fsys.Handle, err *error) sim.Cont {
	o := c.startOp(p, opOpen, rank, err)
	o.path, o.hout = path, h
	return o
}

// create is Create's namespace mutation, once its metadata op is served.
func (c *Core) create(path string) (*Handle, error) {
	if _, ok := c.files[path]; ok {
		return nil, fmt.Errorf("%s: %w: %s", c.name, fsys.ErrExists, path)
	}
	f := c.newFile(path)
	c.files[path] = f
	c.dirEntries[DirOf(path)]++
	c.Stats.Creates++
	return c.newHandle(f), nil
}

// open is Open's lookup, once its metadata op is served.
func (c *Core) open(path string) (*Handle, error) {
	f, ok := c.files[path]
	if !ok {
		return nil, fmt.Errorf("%s: %w: %s", c.name, fsys.ErrNotExist, path)
	}
	c.Stats.Opens++
	return c.newHandle(f), nil
}

// Preload implements fsys.System: installs a pre-existing synthetic file of
// the given size without charging simulation time. It overwrites any
// existing entry.
func (c *Core) Preload(path string, size int64) {
	f := c.newFile(path)
	f.store.MarkSynthetic(size)
	if _, exists := c.files[path]; !exists {
		c.dirEntries[DirOf(path)]++
	}
	c.files[path] = f
}

// PreloadBytes implements fsys.System: installs a pre-existing input file
// with real contents without charging simulation time.
func (c *Core) PreloadBytes(path string, contents []byte) {
	f := c.newFile(path)
	f.store.Write(0, data.FromBytes(contents))
	if _, exists := c.files[path]; !exists {
		c.dirEntries[DirOf(path)]++
	}
	c.files[path] = f
}

// Exists implements fsys.System.
func (c *Core) Exists(path string) bool {
	_, ok := c.files[path]
	return ok
}

// FileSize implements fsys.System.
func (c *Core) FileSize(path string) (int64, error) {
	f, ok := c.files[path]
	if !ok {
		return 0, fmt.Errorf("%s: %w: %s", c.name, fsys.ErrNotExist, path)
	}
	return f.store.Size(), nil
}

// NumFiles implements fsys.System.
func (c *Core) NumFiles() int { return len(c.files) }
