package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/workload"
)

// stack is one running instance of the real serving stack — loopback
// server.Listen over stream → engine → engine.Market — plus the client
// connections the load generator drives it through.
type stack struct {
	sp    *spec
	seed  int64
	inst  *workload.Instance
	srv   *server.Server
	conns []*client.Conn
	jw    *journal.Writer
	jdir  string
	rtt   *obs.Histogram // client RTT histogram (traced runs only)
	texts *textTable     // text workloads only

	tally tally // every auction-carrying request this stack served

	// Control-traffic state (talu-budget): the live population size
	// and the number of phases that have sent control traffic.
	pop      int
	ctlRound int
}

// numConns is the client connection count: at most nproc, and two at
// most, so the in-process generator never outnumbers the CPUs.
func numConns() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// clientWindow is the per-connection pipelining depth (the client and
// server default).
const clientWindow = 32

// setup builds the stack from nothing: instance generation, engine and
// market build, journal open, listen, dial, and a fixed warm-up.
func setup(sp *spec, seed int64, workdir string, traceSample int, rtt *obs.Histogram) (*stack, error) {
	st := &stack{sp: sp, seed: seed, rtt: rtt}
	st.inst = sp.instance(seed)
	st.pop = st.inst.N
	if sp.text {
		st.texts = newTextTable(sp)
	}
	ecfg := sp.engineConfig(seed, traceSample)
	if sp.budget {
		dir, err := os.MkdirTemp(workdir, "journal-")
		if err != nil {
			return nil, fmt.Errorf("journal dir: %w", err)
		}
		st.jdir = dir
		if st.jw, err = journal.Open(dir, journal.Options{Fsync: journal.FsyncNever}); err != nil {
			os.RemoveAll(dir)
			return nil, fmt.Errorf("journal open: %w", err)
		}
		ecfg.Journal = st.jw
	}
	srv, err := server.Listen("127.0.0.1:0", st.inst, server.Config{Stream: stream.Config{Engine: ecfg}})
	if err != nil {
		if st.jw != nil {
			st.jw.Close()
		}
		st.removeJournal()
		return nil, err
	}
	st.srv = srv
	for i := 0; i < numConns(); i++ {
		c, err := client.Dial(srv.Addr(), client.Options{Window: clientWindow, RTT: rtt})
		if err != nil {
			st.teardown()
			return nil, err
		}
		st.conns = append(st.conns, c)
	}
	warm := newQuerySource(st, scheduleSeed(seed, 0), 0).sequence(sp.warmup)
	st.closedLoop(warm, time.Time{})
	return st, nil
}

// engine returns the serving engine under the stack.
func (st *stack) engine() *engine.Engine { return st.srv.Stream().Engine() }

// drain asks the server to drain over the wire, closes the server and
// the connections, and returns the final stream stats.
func (st *stack) drain() (*stream.Stats, error) {
	_, err := st.conns[0].Drain()
	final := st.srv.Close()
	for _, c := range st.conns {
		c.Close()
	}
	st.conns = nil
	return final, err
}

// teardown closes whatever is still open and removes the journal.
func (st *stack) teardown() {
	for _, c := range st.conns {
		c.Close()
	}
	st.conns = nil
	if st.srv != nil {
		st.srv.Close()
	}
	st.removeJournal()
}

func (st *stack) removeJournal() {
	if st.jdir != "" {
		os.RemoveAll(st.jdir)
	}
}
