package apps

import (
	"testing"

	"falcon/internal/devices"
	"falcon/internal/sim"
	"falcon/internal/workload"
)

func appBed(t *testing.T) *workload.Testbed {
	t.Helper()
	return workload.NewTestbed(workload.TestbedConfig{
		LinkRate: 100 * devices.Gbps, Cores: 12, Containers: 4,
		GRO: true, InnerGRO: true,
		RPSCores: []int{1},
	})
}

func TestRPCRoundTrip(t *testing.T) {
	tb := appBed(t)
	srv := NewServer(tb.Server, tb.ServerCtrs[0], 9000, 6, 0,
		func(req Request, respond func(int)) { respond(256) })
	c := NewConn(1, tb.Client, tb.ClientCtrs[0], 21000,
		tb.ServerCtrs[0].IP, 9000, 3, func() int { return 64 }, sim.Millisecond)
	c.Start(40 * sim.Millisecond)
	tb.Run(50 * sim.Millisecond)

	if c.Completed.Value() == 0 {
		t.Fatal("no responses completed")
	}
	if srv.Requests.Value() != c.Completed.Value() {
		t.Fatalf("server handled %d, client completed %d",
			srv.Requests.Value(), c.Completed.Value())
	}
	if c.RTT.Count() == 0 || c.RTT.Min() <= 0 {
		t.Fatal("RTT not measured")
	}
	// Closed loop: roughly window/think operations.
	if c.Completed.Value() > 60 {
		t.Fatalf("closed loop too fast: %d ops", c.Completed.Value())
	}
}

func TestRPCClosedLoopOneOutstanding(t *testing.T) {
	tb := appBed(t)
	inflight, maxInflight := 0, 0
	NewServer(tb.Server, tb.ServerCtrs[0], 9000, 6, 0,
		func(req Request, respond func(int)) {
			inflight++
			if inflight > maxInflight {
				maxInflight = inflight
			}
			inflight--
			respond(128)
		})
	c := NewConn(1, tb.Client, tb.ClientCtrs[0], 21000,
		tb.ServerCtrs[0].IP, 9000, 3, func() int { return 64 }, 0)
	c.Start(20 * sim.Millisecond)
	tb.Run(30 * sim.Millisecond)
	if maxInflight > 1 {
		t.Fatalf("closed loop had %d outstanding", maxInflight)
	}
	if c.Completed.Value() < 10 {
		t.Fatalf("too few ops: %d", c.Completed.Value())
	}
}

// TestRPCRetry: a request that goes unanswered is resent once, with its
// sequence number and size, after retryTimeout, and the answer to the
// resend ends the loop. The answer cancels the retry timeout, so no
// second retry follows.
func TestRPCRetry(t *testing.T) {
	tb := appBed(t)
	var seen []Request
	NewServer(tb.Server, tb.ServerCtrs[0], 9000, 6, 0,
		func(req Request, respond func(int)) {
			if seen = append(seen, req); len(seen) > 1 {
				respond(128) // the first request is lost
			}
		})
	c := NewConn(1, tb.Client, tb.ClientCtrs[0], 21000,
		tb.ServerCtrs[0].IP, 9000, 3, func() int { return 64 }, 0)
	c.Start(sim.Microsecond) // one request: none follows its answer
	tb.Run(5 * retryTimeout)
	if c.Retries.Value() != 1 || c.Completed.Value() != 1 {
		t.Fatalf("retries %d, completed %d; want 1 and 1", c.Retries.Value(), c.Completed.Value())
	}
	if len(seen) != 2 || seen[1].Seq != seen[0].Seq || seen[1].Size != seen[0].Size {
		t.Fatalf("server saw %+v, want one request and its resend", seen)
	}
	if rtt := sim.Time(c.RTT.Max()); rtt >= retryTimeout {
		t.Fatalf("round trip %v timed from the first send, want from the resend", rtt)
	}
}

// TestRPCNoRetryWhenAnswered: on a lossless run every answer cancels its
// request's retry timeout, so nothing is resent and, once the loop ends,
// no timer is left set.
func TestRPCNoRetryWhenAnswered(t *testing.T) {
	tb := appBed(t)
	NewServer(tb.Server, tb.ServerCtrs[0], 9000, 6, 0,
		func(req Request, respond func(int)) { respond(128) })
	c := NewConn(1, tb.Client, tb.ClientCtrs[0], 21000,
		tb.ServerCtrs[0].IP, 9000, 3, func() int { return 64 }, sim.Millisecond)
	c.Start(20 * sim.Millisecond)
	tb.Run(20*sim.Millisecond + 2*retryTimeout)
	if c.Completed.Value() < 5 || c.Retries.Value() != 0 {
		t.Fatalf("completed %d, retries %d; want at least 5 and 0", c.Completed.Value(), c.Retries.Value())
	}
	for _, slot := range []int{slotNext, slotRetry} {
		if c.timers.IsSet(slot) {
			t.Fatalf("timer slot %d still set after the loop ended", slot)
		}
	}
}

func TestMemcachedMix(t *testing.T) {
	tb := appBed(t)
	m := StartMemcached(MemcachedConfig{
		ServerHost: tb.Server, ServerCtr: tb.ServerCtrs[0], ServerCores: []int{6, 7}, Port: 11211,
		ClientHost: tb.Client, ClientCtr: tb.ClientCtrs[0],
		ClientThreads: 2, ClientCoreBase: 2, Connections: 20,
		ThinkTime: 2 * sim.Millisecond,
	}, 60*sim.Millisecond)
	tb.Run(80 * sim.Millisecond)

	total := m.Completed()
	if total < 100 {
		t.Fatalf("completed %d requests, want >100", total)
	}
	gets, sets := m.Gets.Value(), m.Sets.Value()
	if gets == 0 || sets == 0 {
		t.Fatalf("mix missing a type: gets=%d sets=%d", gets, sets)
	}
	ratio := float64(gets) / float64(gets+sets)
	if ratio < 0.8 || ratio > 0.97 {
		t.Fatalf("get ratio %.2f, want ~0.9", ratio)
	}
	lat := m.Latency()
	if lat.P99 < lat.P50 || lat.P50 <= 0 {
		t.Fatalf("latency summary broken: %+v", lat)
	}
}

func TestMemcachedReset(t *testing.T) {
	tb := appBed(t)
	m := StartMemcached(MemcachedConfig{
		ServerHost: tb.Server, ServerCtr: tb.ServerCtrs[0], ServerCores: []int{6, 7}, Port: 11211,
		ClientHost: tb.Client, ClientCtr: tb.ClientCtrs[0],
		Connections: 5, ClientCoreBase: 2, ThinkTime: sim.Millisecond,
	}, 30*sim.Millisecond)
	tb.Run(10 * sim.Millisecond)
	begin := m.Completed()
	m.ResetLatency()
	if m.Latency().Count != 0 {
		t.Fatal("latency reset incomplete")
	}
	if m.Completed() != begin {
		t.Fatal("a latency reset rewound the completed count")
	}
	tb.Run(30 * sim.Millisecond)
	if m.Completed() == begin || m.Latency().Count == 0 {
		t.Fatal("no ops after reset")
	}
}

func TestWebServingOps(t *testing.T) {
	tb := appBed(t)
	w := StartWeb(WebConfig{
		ServerHost: tb.Server,
		WebCtr:     tb.ServerCtrs[0], CacheCtr: tb.ServerCtrs[1], DBCtr: tb.ServerCtrs[2],
		WebCores: []int{6, 9}, CacheCore: 7, DBCore: 8,
		ClientHost: tb.Client, ClientCtr: tb.ClientCtrs[0],
		Users: 40, ClientCores: []int{2, 3, 4},
		ThinkTime: 5 * sim.Millisecond,
	}, 80*sim.Millisecond)
	tb.Run(100 * sim.Millisecond)

	totalOps := uint64(0)
	typesSeen := 0
	for _, st := range w.Stats {
		if st.Completed.Value() > 0 {
			typesSeen++
			totalOps += st.Completed.Value()
			if st.Resp.Count() != st.Completed.Value() {
				t.Fatalf("%s: resp samples %d != completed %d",
					st.Op.Name, st.Resp.Count(), st.Completed.Value())
			}
		}
	}
	if totalOps < 100 {
		t.Fatalf("total ops = %d, want >100", totalOps)
	}
	if typesSeen < 4 {
		t.Fatalf("only %d op types exercised", typesSeen)
	}
	// Backend tiers must have been exercised.
	if w.cacheSrv.Requests.Value() == 0 || w.dbSrv.Requests.Value() == 0 {
		t.Fatal("backend tiers idle")
	}
	// Cache calls outnumber DB calls in the mix.
	if w.cacheSrv.Requests.Value() <= w.dbSrv.Requests.Value()/2 {
		t.Fatalf("backend mix off: cache=%d db=%d",
			w.cacheSrv.Requests.Value(), w.dbSrv.Requests.Value())
	}
}

func TestElggOpSizesUnique(t *testing.T) {
	seen := map[int]bool{}
	sum := 0.0
	for _, op := range ElggOps {
		if seen[op.ReqSize] {
			t.Fatalf("duplicate request size %d", op.ReqSize)
		}
		seen[op.ReqSize] = true
		sum += op.Weight
		if op.Target <= 0 || op.RespSize <= 0 {
			t.Fatalf("op %s malformed", op.Name)
		}
	}
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("weights sum to %.2f", sum)
	}
}
