package main

// topology.go starts and stops the stubbyd nodes a workload runs against:
// real stubby.Servers on loopback listeners, configured the way stubbyd
// deploys with -store (plan store, its job journal, shared estimate cache).

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"github.com/stubby-mr/stubby"
	"github.com/stubby-mr/stubby/internal/cluster"
)

const (
	// nodeWorkers is every node's optimization worker pool.
	nodeWorkers = 2
	// jobRetention bounds the finished jobs each server keeps (stubbyd
	// keeps 1024). Each kept job holds its plan, so with the default a
	// node's memory grows with the number of jobs a run completes; a
	// bound well below a run's job count makes peak memory a property of
	// the serving path rather than of the run's length.
	jobRetention = 32
)

// node is one in-process stubbyd.
type node struct {
	name    string
	url     string
	sess    *stubby.Session
	srv     *stubby.Server
	store   *stubby.PlanStore
	journal *stubby.Journal
	obs     *unitObserver // traced runs only
	hs      *http.Server
	served  chan error
}

// nodeSpec says how to build one node.
type nodeSpec struct {
	name       string
	storeDir   string // "" = no plan store
	journalDir string // "" = no journal
	coord      *stubby.Coordinator
}

// topology is the set of nodes one workload runs against, plus the
// metering the benchmark attaches to them.
type topology struct {
	nodes []*node
	entry *node // the node clients submit to

	client *meter      // every benchmark client's transport
	disp   *meter      // the coordinator's dispatch transport (cluster only)
	routes *routeTimer // traced runs only

	stopAgents context.CancelFunc
	agents     sync.WaitGroup
	transports []*http.Transport
}

func newTransport(t *topology) *http.Transport {
	tr := &http.Transport{MaxIdleConnsPerHost: 16, DisableCompression: true}
	t.transports = append(t.transports, tr)
	return tr
}

// startTopology starts a single node, or with clustered set a coordinator
// and two workers sharing one store directory, under dir.
func startTopology(dir string, clustered, traced bool, tamper func([]byte) []byte) (*topology, error) {
	t := &topology{}
	t.client = newMeter(newTransport(t), traced)
	t.client.keepResults = true
	t.client.tamper = tamper
	if traced {
		t.routes = &routeTimer{}
	}
	var specs []nodeSpec
	if !clustered {
		store := filepath.Join(dir, "store")
		specs = []nodeSpec{{name: "node", storeDir: store, journalDir: filepath.Join(store, "journal")}}
	} else {
		t.disp = newMeter(newTransport(t), traced)
		t.disp.timeDispatch = traced
		coord := stubby.NewCoordinator(cluster.WithHTTPClient(&http.Client{Transport: t.disp}))
		// Unlike stubbyd -coordinator -store, the coordinator has no store
		// and no journal: with a store it would answer hits before
		// dispatching them, and with a journal it would fold the two
		// clients' simultaneous submissions of a new key into one job, so
		// no worker would wait on another's claim (see README.md).
		// Workers share the store directory; a journal takes one writer
		// per directory, so each worker journals to its own.
		store := filepath.Join(dir, "store")
		specs = []nodeSpec{
			{name: "coordinator", coord: coord},
			{name: "worker-1", storeDir: store, journalDir: filepath.Join(dir, "journal-1")},
			{name: "worker-2", storeDir: store, journalDir: filepath.Join(dir, "journal-2")},
		}
	}
	for _, spec := range specs {
		n, err := t.startNode(spec, traced)
		if err != nil {
			t.close()
			return nil, err
		}
		t.nodes = append(t.nodes, n)
	}
	t.entry = t.nodes[0]
	if clustered {
		if err := t.joinWorkers(); err != nil {
			t.close()
			return nil, err
		}
	}
	return t, nil
}

func (t *topology) startNode(spec nodeSpec, traced bool) (*node, error) {
	n := &node{name: spec.name}
	opts := []stubby.SessionOption{
		stubby.WithSeed(1),
		stubby.WithQueueDepth(stubby.DefaultQueueDepth),
		stubby.WithPlanner("stubby"),
		stubby.WithParallelism(nodeWorkers),
		stubby.WithEstimateCache(stubby.NewEstimateCache(0)),
	}
	if traced {
		n.obs = newUnitObserver()
		opts = append(opts, stubby.WithObserver(n.obs))
	}
	var err error
	if spec.storeDir != "" {
		if n.store, err = stubby.NewPlanStore(spec.storeDir); err != nil {
			return nil, fmt.Errorf("%s: %w", spec.name, err)
		}
		opts = append(opts, stubby.WithPlanStore(n.store))
	}
	if n.sess, err = stubby.NewSession(opts...); err != nil {
		n.close()
		return nil, fmt.Errorf("%s: %w", spec.name, err)
	}
	srvOpts := []stubby.ServerOption{stubby.WithJobRetention(jobRetention)}
	if spec.journalDir != "" {
		if n.journal, err = stubby.OpenJournal(spec.journalDir); err != nil {
			n.close()
			return nil, fmt.Errorf("%s: %w", spec.name, err)
		}
		srvOpts = append(srvOpts, stubby.WithJournal(n.journal))
	}
	if spec.coord != nil {
		srvOpts = append(srvOpts, stubby.WithCoordinator(spec.coord))
	}
	n.srv = stubby.NewServer(n.sess, srvOpts...)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		n.close()
		return nil, fmt.Errorf("%s: %w", spec.name, err)
	}
	var h http.Handler = n.srv
	if t.routes != nil {
		h = t.routes.wrap(h)
	}
	n.url = "http://" + ln.Addr().String()
	n.hs = &http.Server{Handler: h}
	n.served = make(chan error, 1)
	go func() { n.served <- n.hs.Serve(ln) }()
	return n, nil
}

// joinWorkers runs a WorkerAgent per worker and waits until every worker
// holds a lease.
func (t *topology) joinWorkers() error {
	ctx, cancel := context.WithCancel(context.Background())
	t.stopAgents = cancel
	hc := &http.Client{Transport: newTransport(t)}
	for _, n := range t.nodes[1:] {
		store := n.store
		agent := stubby.NewWorkerAgent(t.entry.url, n.url,
			stubby.WithWorkerStats(func() (uint64, uint64) {
				st := store.Stats()
				return st.ClaimHits, st.Computes
			}),
			cluster.WithAgentHTTPClient(hc))
		t.agents.Add(1)
		go func() {
			defer t.agents.Done()
			_ = agent.Run(ctx) // returns only ctx's error, at shutdown
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		if st, ok := t.entry.srv.ClusterStats(); ok && st.LiveWorkers == len(t.nodes)-1 {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("workers never joined the coordinator")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stats fetches every node's /statsz through a client outside the metered
// path, so the reads do not count as the workload's traffic.
func (t *topology) stats(ctx context.Context) ([]*stubby.ServiceStats, error) {
	hc := &http.Client{Transport: newTransport(t)}
	out := make([]*stubby.ServiceStats, len(t.nodes))
	for i, n := range t.nodes {
		c, err := stubby.NewClient(n.url, stubby.WithHTTPClient(hc))
		if err != nil {
			return nil, err
		}
		if out[i], err = c.Stats(ctx); err != nil {
			return nil, fmt.Errorf("%s /statsz: %w", n.name, err)
		}
	}
	return out, nil
}

// close stops the agents, then every node, and waits for all of them.
func (t *topology) close() error {
	if t.stopAgents != nil {
		t.stopAgents()
		t.agents.Wait()
	}
	var errs []error
	for _, n := range t.nodes {
		errs = append(errs, n.close())
	}
	for _, tr := range t.transports {
		tr.CloseIdleConnections()
	}
	return errors.Join(errs...)
}

// close shuts the node's listener (waiting for open requests), drains its
// session, and closes its store and journal.
func (n *node) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	if n.hs != nil {
		errs = append(errs, n.hs.Shutdown(ctx))
		if err := <-n.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if n.sess != nil {
		errs = append(errs, n.sess.Close(ctx))
	}
	if n.journal != nil {
		errs = append(errs, n.journal.Close())
	}
	if n.store != nil {
		errs = append(errs, n.store.Close())
	}
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("%s: %w", n.name, err)
	}
	return nil
}
