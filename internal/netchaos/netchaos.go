// Package netchaos is the wire-level sibling of internal/faultfs: a
// seeded, deterministic in-process TCP chaos proxy that sits between a
// client (ingest.Client, telcoload) and a server (telcoserve) and
// makes the connection fail the way real networks fail — injected
// latency, bandwidth caps, abrupt connection resets, torn writes that
// deliver a prefix and die, blackholes that swallow bytes without
// forwarding, and slowloris trickle that stretches one payload over
// seconds.
//
// Faults are declared as rules in faultfs.Fault's fail-at-Nth-op
// style: each rule names an operation class (accept, upstream dial,
// client→upstream chunk, upstream→client chunk), the occurrence to
// fire at, and the failure kind. Each rule keeps its own match
// counter, so a plan is a pure function of the traffic shape and the
// seed — the chaos matrix replays identical fault schedules across
// runs. Latency jitter is drawn from a seeded PRNG.
//
// The proxy never rewrites bytes: every payload that is forwarded is
// forwarded verbatim, so an ingest stream that survives the proxy is
// the same stream — the matrix in this package's tests asserts a full
// campaign streamed through an adversarial proxy seals byte-identical
// to the batch campaign.
package netchaos

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Op names one proxied operation class a Rule can match.
type Op string

// Operation classes. OpUp and OpDown count per forwarded chunk (one
// Read/Write cycle of the relay buffer), OpAccept per accepted client
// connection, OpDial per upstream dial.
const (
	OpAccept Op = "accept"
	OpDial   Op = "dial"
	OpUp     Op = "up"
	OpDown   Op = "down"
)

// Kind selects how a matched operation misbehaves.
type Kind int

const (
	// KindReset aborts both sides of the connection abruptly (SO_LINGER
	// 0, so the peer sees a RST where the platform supports it).
	KindReset Kind = iota
	// KindTorn forwards a prefix of the chunk (Frac of its bytes,
	// rounded down, at least 1) and then resets — the receiver sees a
	// torn payload.
	KindTorn
	// KindBlackhole stops forwarding in the matched direction: bytes
	// are still read from the source and dropped, the connection stays
	// open, and the peer waits until its own deadline fires.
	KindBlackhole
	// KindLatency delays the chunk by Delay plus seeded jitter, then
	// forwards it normally.
	KindLatency
	// KindTrickle forwards the chunk slowloris-style: TrickleBytes at a
	// time with Delay between slices.
	KindTrickle
	// KindBandwidth caps the connection's throughput in the matched
	// direction at Rate bytes/second from this chunk on.
	KindBandwidth
)

func (k Kind) String() string {
	switch k {
	case KindReset:
		return "reset"
	case KindTorn:
		return "torn"
	case KindBlackhole:
		return "blackhole"
	case KindLatency:
		return "latency"
	case KindTrickle:
		return "trickle"
	case KindBandwidth:
		return "bandwidth"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Rule makes matching operations misbehave. A rule matches the ops of
// its class numbered [After, After+Count) by that rule's own counter —
// or, with Every > 0, every Every-th op from After on. Count 0 means
// 1; Count < 0 means unlimited.
type Rule struct {
	// Op is the operation class to match.
	Op Op
	// After is the 0-based index of the first matching op.
	After int
	// Count bounds how many ops fire. For contiguous rules 0 means 1;
	// with Every > 0 it means unlimited. Negative is always unlimited.
	Count int
	// Every, when > 0, fires on every Every-th op from After instead of
	// a contiguous run.
	Every int
	// Kind selects the failure mode.
	Kind Kind
	// Delay is the injected wait for KindLatency and the inter-slice
	// wait for KindTrickle.
	Delay time.Duration
	// Jitter adds up to this much seeded-random extra wait to Delay.
	Jitter time.Duration
	// Frac is the delivered fraction for KindTorn (0 = 0.5).
	Frac float64
	// Rate is the KindBandwidth cap in bytes/second.
	Rate int
	// TrickleBytes is the KindTrickle slice size (0 = 1).
	TrickleBytes int
}

// ruleState pairs a rule with its private match counter.
type ruleState struct {
	Rule
	n     atomic.Int64 // ops of this class seen so far
	fired atomic.Int64
}

// matches reports whether this occurrence (the state's own counter)
// fires, and burns one firing from the budget if so.
func (rs *ruleState) matches(op Op) bool {
	if rs.Op != op {
		return false
	}
	n := int(rs.n.Add(1)) - 1
	if n < rs.After {
		return false
	}
	if rs.Every > 0 {
		if (n-rs.After)%rs.Every != 0 {
			return false
		}
	} else if rs.Count >= 0 {
		count := rs.Count
		if count == 0 {
			count = 1
		}
		if n >= rs.After+count {
			return false
		}
		rs.fired.Add(1)
		return true
	}
	if rs.Count > 0 && int(rs.fired.Load()) >= rs.Count {
		return false
	}
	rs.fired.Add(1)
	return true
}

// Stats counts what the proxy did, for assertions and operator output.
type Stats struct {
	Accepted   int64 `json:"accepted"`
	DialErrors int64 `json:"dial_errors"`
	Resets     int64 `json:"resets"`
	Torn       int64 `json:"torn"`
	Blackholed int64 `json:"blackholed"`
	Delayed    int64 `json:"delayed"`
	Trickled   int64 `json:"trickled"`
	Throttled  int64 `json:"throttled"`
	BytesUp    int64 `json:"bytes_up"`
	BytesDown  int64 `json:"bytes_down"`
}

// Options tunes a Proxy.
type Options struct {
	// Rules is the fault plan (empty = transparent proxy).
	Rules []Rule
	// Seed feeds the jitter PRNG (0 = 1).
	Seed int64
	// Addr is the listen address ("" = "127.0.0.1:0").
	Addr string
}

// Proxy is a running chaos proxy. Close it to stop listening and tear
// down every proxied connection.
type Proxy struct {
	target string
	ln     net.Listener
	rules  []*ruleState

	jmu sync.Mutex
	rng *rand.Rand

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	done  chan struct{}

	accepted   atomic.Int64
	dialErrors atomic.Int64
	resets     atomic.Int64
	torn       atomic.Int64
	blackholed atomic.Int64
	delayed    atomic.Int64
	trickled   atomic.Int64
	throttled  atomic.Int64
	bytesUp    atomic.Int64
	bytesDown  atomic.Int64
}

// New starts a proxy forwarding to target ("host:port").
func New(target string, opts Options) (*Proxy, error) {
	addr := opts.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netchaos: listen %s: %w", addr, err)
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	p := &Proxy{
		target: target,
		ln:     ln,
		rng:    rand.New(rand.NewSource(seed)),
		conns:  make(map[net.Conn]struct{}),
		done:   make(chan struct{}),
	}
	for i := range opts.Rules {
		p.rules = append(p.rules, &ruleState{Rule: opts.Rules[i]})
	}
	go p.acceptLoop()
	return p, nil
}

// Addr is the proxy's listen address ("host:port") for clients.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// URL is the proxy's address as an http base URL.
func (p *Proxy) URL() string { return "http://" + p.Addr() }

// Stats snapshots the proxy's counters.
func (p *Proxy) Stats() Stats {
	return Stats{
		Accepted:   p.accepted.Load(),
		DialErrors: p.dialErrors.Load(),
		Resets:     p.resets.Load(),
		Torn:       p.torn.Load(),
		Blackholed: p.blackholed.Load(),
		Delayed:    p.delayed.Load(),
		Trickled:   p.trickled.Load(),
		Throttled:  p.throttled.Load(),
		BytesUp:    p.bytesUp.Load(),
		BytesDown:  p.bytesDown.Load(),
	}
}

// Close stops accepting and hard-closes every live connection.
func (p *Proxy) Close() error {
	close(p.done)
	err := p.ln.Close()
	p.mu.Lock()
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	return err
}

// closed reports whether Close has been called.
func (p *Proxy) closed() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// jitter draws a seeded random wait in [0, j].
func (p *Proxy) jitter(j time.Duration) time.Duration {
	if j <= 0 {
		return 0
	}
	p.jmu.Lock()
	defer p.jmu.Unlock()
	return time.Duration(p.rng.Int63n(int64(j) + 1))
}

// firing finds the first rule matching this op occurrence (each rule
// burns its own counter, so probing is itself the op accounting).
func (p *Proxy) firing(op Op) *ruleState {
	var hit *ruleState
	for _, rs := range p.rules {
		if rs.matches(op) && hit == nil {
			hit = rs
		}
	}
	return hit
}

// track registers a connection for teardown on Close.
func (p *Proxy) track(c net.Conn) {
	p.mu.Lock()
	p.conns[c] = struct{}{}
	p.mu.Unlock()
}

func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

// reset aborts a connection abruptly: linger 0 turns the close into a
// RST on platforms that support it, which is exactly the "connection
// reset by peer" a flaky middlebox produces.
func reset(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	c.Close()
}

func (p *Proxy) acceptLoop() {
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		p.accepted.Add(1)
		if rs := p.firing(OpAccept); rs != nil {
			switch rs.Kind {
			case KindLatency:
				time.Sleep(rs.Delay + p.jitter(rs.Jitter))
				p.delayed.Add(1)
			default:
				// Any non-latency fault at accept time is a reset: the
				// client's connection dies before a byte moves.
				p.resets.Add(1)
				reset(client)
				continue
			}
		}
		go p.serve(client)
	}
}

// serve relays one client connection to a fresh upstream connection.
func (p *Proxy) serve(client net.Conn) {
	defer client.Close()
	p.track(client)
	defer p.untrack(client)

	if rs := p.firing(OpDial); rs != nil && rs.Kind != KindLatency {
		// A faulted dial: the upstream is unreachable for this
		// connection. The client sees its connection die.
		p.dialErrors.Add(1)
		p.resets.Add(1)
		reset(client)
		return
	}
	up, err := net.DialTimeout("tcp", p.target, dialTimeout)
	if err != nil {
		p.dialErrors.Add(1)
		reset(client)
		return
	}
	defer up.Close()
	p.track(up)
	defer p.untrack(up)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		p.relay(client, up, OpUp, &p.bytesUp)
	}()
	go func() {
		defer wg.Done()
		p.relay(up, client, OpDown, &p.bytesDown)
	}()
	wg.Wait()
}

// dialTimeout bounds each upstream dial.
const dialTimeout = 5 * time.Second

// relayBufSize is the chunk granularity faults operate at. Small
// enough that a batch POST spans several chunks (so mid-payload faults
// exist), large enough to stay cheap.
const relayBufSize = 16 << 10

// relay copies src→dst chunk-wise, applying the fault plan to each
// chunk. Any fault or copy error tears down both directions (closing
// the conns unblocks the sibling relay's Read).
func (p *Proxy) relay(src, dst net.Conn, op Op, bytes *atomic.Int64) {
	buf := make([]byte, relayBufSize)
	blackholed := false
	var capRate int // bytes/sec, 0 = uncapped
	for {
		n, rerr := src.Read(buf)
		if n > 0 {
			if rs := p.firing(op); rs != nil {
				switch rs.Kind {
				case KindReset:
					p.resets.Add(1)
					reset(src)
					reset(dst)
					return
				case KindTorn:
					frac := rs.Frac
					if frac <= 0 || frac >= 1 {
						frac = 0.5
					}
					keep := int(float64(n) * frac)
					if keep < 1 {
						keep = 1
					}
					if _, err := dst.Write(buf[:keep]); err == nil {
						bytes.Add(int64(keep))
					}
					p.torn.Add(1)
					p.resets.Add(1)
					reset(src)
					reset(dst)
					return
				case KindBlackhole:
					if !blackholed {
						p.blackholed.Add(1)
					}
					blackholed = true
				case KindLatency:
					p.delayed.Add(1)
					if !p.sleep(rs.Delay + p.jitter(rs.Jitter)) {
						return
					}
				case KindTrickle:
					p.trickled.Add(1)
					if !p.trickle(dst, buf[:n], rs, bytes) {
						reset(src)
						reset(dst)
						return
					}
					if rerr != nil {
						dst.Close()
						return
					}
					continue
				case KindBandwidth:
					if rs.Rate > 0 {
						if capRate == 0 {
							p.throttled.Add(1)
						}
						capRate = rs.Rate
					}
				}
			}
			if blackholed {
				// Swallow the chunk: the sender believes it made progress,
				// the receiver waits for bytes that never come.
				continue
			}
			if capRate > 0 {
				if !p.sleep(time.Duration(float64(n) / float64(capRate) * float64(time.Second))) {
					return
				}
			}
			if _, err := dst.Write(buf[:n]); err != nil {
				src.Close()
				return
			}
			bytes.Add(int64(n))
		}
		if rerr != nil {
			// Half-close where possible so the peer sees EOF, matching
			// what a transparent TCP path would deliver.
			if tc, ok := dst.(*net.TCPConn); ok {
				tc.CloseWrite()
			} else {
				dst.Close()
			}
			return
		}
	}
}

// sleep waits d unless the proxy is closed first; false means closed.
func (p *Proxy) sleep(d time.Duration) bool {
	if d <= 0 {
		return !p.closed()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-p.done:
		return false
	case <-t.C:
		return true
	}
}

// trickle writes chunk in TrickleBytes-sized slices with Delay between
// them — the slowloris shape. False means the write failed or the
// proxy closed.
func (p *Proxy) trickle(dst net.Conn, chunk []byte, rs *ruleState, bytes *atomic.Int64) bool {
	slice := rs.TrickleBytes
	if slice < 1 {
		slice = 1
	}
	for lo := 0; lo < len(chunk); lo += slice {
		hi := min(lo+slice, len(chunk))
		if _, err := dst.Write(chunk[lo:hi]); err != nil {
			return false
		}
		bytes.Add(int64(hi - lo))
		if hi < len(chunk) && !p.sleep(rs.Delay) {
			return false
		}
	}
	return true
}

// ParseRules parses a comma-separated fault plan, the CLI surface of
// the proxy (telcoload -chaos-faults):
//
//	reset:up:after=10:every=50        reset every 50th upstream chunk
//	torn:up:after=100:frac=0.3        one torn write, 30% delivered
//	latency:down:delay=5ms:jitter=5ms delay every downstream chunk
//	trickle:up:after=5:delay=1ms:bytes=64
//	bandwidth:down:rate=65536         cap downstream at 64 KiB/s
//	blackhole:down:after=200:count=1
//
// Fields: kind:op[:k=v...]. Keys: after, count, every, delay, jitter,
// frac, rate, bytes.
func ParseRules(spec string) ([]Rule, error) {
	var rules []Rule
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		if len(fields) < 2 {
			return nil, fmt.Errorf("netchaos: rule %q: want kind:op[:k=v...]", part)
		}
		var r Rule
		switch fields[0] {
		case "reset":
			r.Kind = KindReset
		case "torn":
			r.Kind = KindTorn
		case "blackhole":
			r.Kind = KindBlackhole
		case "latency":
			r.Kind = KindLatency
		case "trickle":
			r.Kind = KindTrickle
		case "bandwidth":
			r.Kind = KindBandwidth
		default:
			return nil, fmt.Errorf("netchaos: rule %q: unknown kind %q", part, fields[0])
		}
		switch Op(fields[1]) {
		case OpAccept, OpDial, OpUp, OpDown:
			r.Op = Op(fields[1])
		default:
			return nil, fmt.Errorf("netchaos: rule %q: unknown op %q", part, fields[1])
		}
		for _, kv := range fields[2:] {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("netchaos: rule %q: bad field %q", part, kv)
			}
			var err error
			switch k {
			case "after":
				_, err = fmt.Sscanf(v, "%d", &r.After)
			case "count":
				_, err = fmt.Sscanf(v, "%d", &r.Count)
			case "every":
				_, err = fmt.Sscanf(v, "%d", &r.Every)
			case "delay":
				r.Delay, err = time.ParseDuration(v)
			case "jitter":
				r.Jitter, err = time.ParseDuration(v)
			case "frac":
				_, err = fmt.Sscanf(v, "%g", &r.Frac)
			case "rate":
				_, err = fmt.Sscanf(v, "%d", &r.Rate)
			case "bytes":
				_, err = fmt.Sscanf(v, "%d", &r.TrickleBytes)
			default:
				err = errors.New("unknown key")
			}
			if err != nil {
				return nil, fmt.Errorf("netchaos: rule %q: field %q: %v", part, kv, err)
			}
		}
		rules = append(rules, r)
	}
	return rules, nil
}
