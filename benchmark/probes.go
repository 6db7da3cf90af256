package main

import (
	"fmt"
	"runtime"
	"time"

	"peerlab/internal/core"
	"peerlab/internal/experiments"
	"peerlab/internal/jxta"
	"peerlab/internal/overlay"
	"peerlab/internal/pipe"
	"peerlab/internal/simnet"
	"peerlab/internal/transfer"
	"peerlab/internal/transport"
	"peerlab/internal/vtime"
	"peerlab/internal/wire"
)

// probeBudget is how long each probe repeats its batch; every probe runs at
// least minBatches batches and reports the median per operation.
const (
	probeBudget = 300 * time.Millisecond
	minBatches  = 5
)

// perOp runs batch, which performs and returns some number of operations,
// until the budget is spent and returns the median nanoseconds per
// operation over the batches.
func perOp(batch func() (int, error)) (float64, error) {
	var xs []float64
	start := time.Now()
	for len(xs) < minBatches || time.Since(start) < probeBudget {
		t := time.Now()
		n, err := batch()
		if err != nil {
			return 0, err
		}
		xs = append(xs, float64(time.Since(t).Nanoseconds())/float64(n))
	}
	return median(xs), nil
}

// probes times calls into each layer's public functions with inputs shaped
// like the workload's, and returns the per-layer metrics they give.
func probes(s spec, seed int64) (map[string]float64, error) {
	m := map[string]float64{}
	type probe struct {
		name  string
		batch func() (int, error)
	}
	standalone := []probe{
		{"vtime.timer_ns", probeTimers},
		{"vtime.handoff_ns", probeHandoff},
		{"simnet.send_small_ns", probeSend(16)},
		{"simnet.send_large_ns", probeSend(64 << 10)},
		{"pipe.rtt_w1_ns", probePipe(1)},
		{"pipe.rtt_w4_ns", probePipe(4)},
	}
	for _, p := range standalone {
		v, err := perOp(p.batch)
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", p.name, err)
		}
		m[p.name] = v
	}
	if err := directoryProbes(s, seed, m); err != nil {
		return nil, err
	}
	return m, nil
}

// probeTimers schedules 1024 timers at spread delays from one process and
// lets them all fire: the cost of AfterFunc schedule plus fire.
func probeTimers() (int, error) {
	const n = 1024
	s := vtime.NewScheduler()
	fired := 0
	s.Go(func() {
		for i := 0; i < n; i++ {
			s.AfterFunc(time.Duration(1+i%64)*time.Millisecond, func() { fired++ })
		}
	})
	s.Wait()
	if fired != n {
		return 0, fmt.Errorf("%d of %d timers fired", fired, n)
	}
	return n, nil
}

// probeHandoff ping-pongs between two processes through two queues: each
// operation is one park of one process and the wake of the other.
func probeHandoff() (int, error) {
	const n = 2048
	s := vtime.NewScheduler()
	ping, pong := vtime.NewQueue(s), vtime.NewQueue(s)
	var err error
	s.Go(func() {
		for i := 0; i < n && err == nil; i++ {
			if err = ping.Push(i); err == nil {
				_, err = pong.Pop()
			}
		}
	})
	s.Go(func() {
		for i := 0; i < n; i++ {
			if _, e := ping.Pop(); e != nil {
				return
			}
			if pong.Push(i) != nil {
				return
			}
		}
	})
	s.Wait()
	return 2 * n, err
}

// twoNodes deploys two default-profile nodes with one endpoint each.
func twoNodes(service string) (*simnet.Network, [2]*simnet.Node, [2]transport.Endpoint, error) {
	net := simnet.New(1)
	var nodes [2]*simnet.Node
	var eps [2]transport.Endpoint
	for i, name := range []string{"probe-a", "probe-b"} {
		nodes[i] = net.MustAddNode(name, simnet.DefaultProfile())
		ep, err := nodes[i].Endpoint(service)
		if err != nil {
			return nil, nodes, eps, err
		}
		eps[i] = ep
	}
	return net, nodes, eps, nil
}

// probeSend sends 256 messages of size bytes from one node to another and
// receives them: simnet's Send to Recv path.
func probeSend(size int) func() (int, error) {
	return func() (int, error) {
		const n = 256
		net, _, eps, err := twoNodes("probe")
		if err != nil {
			return 0, err
		}
		payload := make([]byte, size)
		var sendErr, recvErr error
		net.Scheduler().Go(func() {
			for i := 0; i < n && sendErr == nil; i++ {
				sendErr = eps[0].Send(eps[1].Addr(), payload)
			}
		})
		net.Scheduler().Go(func() {
			for i := 0; i < n && recvErr == nil; i++ {
				_, recvErr = eps[1].Recv()
			}
		})
		net.Wait()
		if sendErr != nil {
			return 0, sendErr
		}
		return n, recvErr
	}
}

// probePipe runs 64 round trips over one reliable pipe connection: the
// dialer sends a burst of four 1 KiB segments, the acceptor reads them and
// answers with one short segment. Window 1 is stop-and-wait, window 4 lets
// the whole burst be in flight.
func probePipe(window int) func() (int, error) {
	return func() (int, error) {
		const rounds, burst = 64, 4
		net, nodes, eps, err := twoNodes("pipe")
		if err != nil {
			return 0, err
		}
		opts := pipe.Options{Window: window}
		dialer := pipe.NewMux(nodes[0], eps[0], opts)
		acceptor := pipe.NewMux(nodes[1], eps[1], opts)
		seg := make([]byte, 1024)
		var dialErr, acceptErr error
		net.Scheduler().Go(func() {
			conn, err := dialer.Dial(acceptor.Addr())
			if err != nil {
				dialErr = err
				return
			}
			for r := 0; r < rounds && dialErr == nil; r++ {
				for k := 0; k < burst && dialErr == nil; k++ {
					dialErr = conn.Send(seg)
				}
				if dialErr == nil {
					_, dialErr = conn.Recv()
				}
			}
			conn.Close()
		})
		net.Scheduler().Go(func() {
			conn, err := acceptor.Accept()
			if err != nil {
				acceptErr = err
				return
			}
			for r := 0; r < rounds && acceptErr == nil; r++ {
				for k := 0; k < burst && acceptErr == nil; k++ {
					_, acceptErr = conn.Recv()
				}
				if acceptErr == nil {
					acceptErr = conn.Send(seg[:16])
				}
			}
		})
		net.Wait()
		dialer.Close()
		acceptor.Close()
		if dialErr != nil {
			return 0, dialErr
		}
		return rounds, acceptErr
	}
}

// directoryProbes boot the workload's catalog (no flows) and time the
// control plane over it: selection with and without a stats change between
// calls, full-directory discovery, advertisement coding, ranking and stats
// snapshots.
func directoryProbes(s spec, seed int64, m map[string]float64) error {
	cfg, err := s.config(seed)
	if err != nil {
		return err
	}
	env, err := experiments.NewEnv(cfg)
	if err != nil {
		return err
	}
	req := core.Request{Kind: core.KindFileTransfer, SizeBytes: 2 * transfer.Mb}
	err = env.Run(func(ctl *overlay.Client, clients map[string]*overlay.Client) error {
		reporter := clients[cfg.Scenario.Labels[0]]
		sel := func() (int, error) {
			_, err := ctl.SelectPeers("economic", req, 1, nil)
			return 1, err
		}
		if _, err := sel(); err != nil { // builds the rank index
			return err
		}
		var err error
		if m["overlay.select_hit_ns"], err = perOp(sel); err != nil {
			return err
		}
		// The timed call follows a stats report, so every selection finds
		// the directory changed.
		if m["overlay.select_miss_ns"], err = perCall(func() error { return reporter.ReportStats() }, sel); err != nil {
			return err
		}
		m["overlay.discover_ns"], err = perOp(func() (int, error) {
			_, err := ctl.Discover()
			return 1, err
		})
		return err
	})
	if err != nil {
		return fmt.Errorf("directory probes: %w", err)
	}

	ads := env.Broker.Advertisements(jxta.AdvPeer, "")
	if len(ads) == 0 {
		return fmt.Errorf("directory probes: empty directory")
	}
	enc := wire.NewEncoder(256)
	if m["jxta.adv_encode_ns"], err = perOp(func() (int, error) {
		for _, a := range ads {
			enc.Reset()
			a.Encode(enc)
		}
		return len(ads), nil
	}); err != nil {
		return err
	}
	encoded := make([][]byte, len(ads))
	for i, a := range ads {
		e := wire.NewEncoder(256)
		a.Encode(e)
		encoded[i] = e.Bytes()
	}
	decode := func() (int, error) {
		for _, b := range encoded {
			if _, err := jxta.DecodeAdvertisement(wire.NewDecoder(b)); err != nil {
				return 0, err
			}
		}
		return len(encoded), nil
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := decode(); err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	m["jxta.adv_decode_allocs"] = float64(after.Mallocs-before.Mallocs) / float64(len(encoded))
	if m["jxta.adv_decode_ns"], err = perOp(decode); err != nil {
		return err
	}

	snaps := env.Broker.Registry().Snapshots()
	cands := make([]core.Candidate, len(snaps))
	for i, sn := range snaps {
		cands[i] = core.Candidate{Snapshot: sn}
	}
	ev := core.NewSamePriority()
	if m["core.rank_ns"], err = perOp(func() (int, error) {
		_, err := ev.Rank(req, cands)
		return 1, err
	}); err != nil {
		return err
	}
	ps := env.Broker.Registry().Peer(snaps[0].Peer)
	m["stats.snapshot_ns"], err = perOp(func() (int, error) {
		const n = 256
		for i := 0; i < n; i++ {
			ps.Snapshot()
		}
		return n, nil
	})
	return err
}

// perCall times op alone, after an untimed prepare, until the budget is
// spent, and returns the median nanoseconds per call.
func perCall(prepare func() error, op func() (int, error)) (float64, error) {
	var xs []float64
	start := time.Now()
	for len(xs) < minBatches || time.Since(start) < probeBudget {
		if err := prepare(); err != nil {
			return 0, err
		}
		t := time.Now()
		if _, err := op(); err != nil {
			return 0, err
		}
		xs = append(xs, float64(time.Since(t).Nanoseconds()))
	}
	return median(xs), nil
}
