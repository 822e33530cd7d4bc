package session

import (
	"sync"
	"sync/atomic"

	"fpvm/internal/machine"
)

// DefaultQuarantineStreak is the consecutive-degraded-run threshold above
// which Put quarantines a session even though no panic was observed. Eight
// consecutive runs that all needed the degradation engine is far outside any
// healthy workload in the suite (degradations are rare, fault-injected
// events), so the ledger reads the streak as possible slow corruption and
// retires the session rather than betting another tenant on it.
const DefaultQuarantineStreak = 8

// PoolStats is a point-in-time snapshot of a pool's traffic. Reuse rate
// (Gets - News) / Gets is the figure of merit: a warm pool under steady load
// should be serving nearly every checkout from a retained session. The
// quarantine ledger adds the resilience invariant: Gets == Puts + Quarantined
// once the pool is drained, and a quarantined session is never pooled again.
type PoolStats struct {
	Gets uint64 `json:"gets"` // checkouts
	Puts uint64 `json:"puts"` // returns that re-pooled the session
	News uint64 `json:"news"` // checkouts that had to construct a fresh session
	// Poisoned counts sessions returned after a contained panic
	// (*PoisonedError); every one is quarantined.
	Poisoned uint64 `json:"poisoned"`
	// Quarantined counts sessions destroyed instead of re-pooled — poisoned
	// sessions plus chronic degraders past the streak threshold.
	Quarantined uint64 `json:"quarantined"`
	// Replaced counts fresh constructions that repaid a quarantine (the pool
	// rebuilding its population), a subset of News.
	Replaced uint64 `json:"replaced"`
}

// Pool is a sync.Pool of Sessions with traffic accounting. Sessions carry
// multi-megabyte retained state (guest memory, decode cache, shadow arena),
// so pooling them converts per-request construction into a Reset pass over
// retained buffers; sync.Pool's per-P caches also keep a session on the
// core that last ran it. The Go runtime may still reclaim idle sessions
// under memory pressure — that is the desired behavior for a long-running
// service, and News counts how often it happens.
//
// Pool is also the health ledger: Put inspects the returning session and
// quarantines (drops, never re-pools) one that is poisoned or chronically
// degrading. The next checkout that misses the pool constructs a replacement
// and is counted in Replaced — the population self-heals, and a poisoned
// session's arena or NaN-box state can never reach a later tenant.
//
// Pool is safe for concurrent use. A Session checked out of the pool is
// owned exclusively by the caller until Put.
type Pool struct {
	p           sync.Pool
	gets        atomic.Uint64
	puts        atomic.Uint64
	news        atomic.Uint64
	poisoned    atomic.Uint64
	quarantined atomic.Uint64
	replaced    atomic.Uint64
	// debt is the number of quarantined sessions not yet repaid by a fresh
	// construction; New repays it so Replaced tracks rebuilds, not cold misses.
	debt atomic.Int64
	once sync.Once
}

func (p *Pool) init() {
	p.once.Do(func() {
		p.p.New = func() any {
			p.news.Add(1)
			for {
				d := p.debt.Load()
				if d <= 0 {
					break
				}
				if p.debt.CompareAndSwap(d, d-1) {
					p.replaced.Add(1)
					break
				}
			}
			return New()
		}
	})
}

// Get checks a session out of the pool, constructing one if none is idle.
// Quarantine happens at Put, so Get can never observe a poisoned session.
func (p *Pool) Get() *Session {
	p.init()
	p.gets.Add(1)
	return p.p.Get().(*Session)
}

// Put returns a session for reuse, or quarantines it. The session must not
// be used after Put. A healthy session's state is not scrubbed here — Run
// resets everything before the next guest executes, and the bit-identity
// tests hold that reset to the fresh-machine standard. A poisoned session
// (contained panic) or a chronic degrader is outside that contract: it is
// dropped for the collector and counted, never re-pooled.
func (p *Pool) Put(s *Session) {
	if s == nil {
		return
	}
	p.init()
	if s.Poisoned() {
		p.poisoned.Add(1)
		p.quarantine()
		return
	}
	if s.DegradedStreak() >= DefaultQuarantineStreak {
		p.quarantine()
		return
	}
	p.puts.Add(1)
	p.p.Put(s)
}

// quarantine accounts a destroyed session. The *Session itself is simply not
// re-pooled; dropping the last reference retires its machine, arena, and
// telemetry state with it.
func (p *Pool) quarantine() {
	p.quarantined.Add(1)
	p.debt.Add(1)
}

// Run is the checkout → run → return cycle as one call. The session goes
// back to the pool even when the run errors; a setup error leaves no
// partially-bound state behind because the next Run resets everything first,
// and Put's health ledger quarantines a session the error poisoned.
func (p *Pool) Run(img *machine.Image, cfg Config) (Result, error) {
	s := p.Get()
	defer p.Put(s)
	return s.Run(img, cfg)
}

// Stats snapshots the pool counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Gets:        p.gets.Load(),
		Puts:        p.puts.Load(),
		News:        p.news.Load(),
		Poisoned:    p.poisoned.Load(),
		Quarantined: p.quarantined.Load(),
		Replaced:    p.replaced.Load(),
	}
}
