// Package faultinject is a deterministic, seedable fault injector for the
// FPVM runtime's resilience layer. The paper's central robustness claim
// (§4.1–4.2) is that the VM always has an escape hatch: any value can be
// demoted back to an IEEE double and any instruction re-executed natively,
// so an emulation-path failure degrades the run instead of killing it. That
// claim is only testable if failures can be manufactured on demand. This
// package provides the manufacturing: named seams in the runtime (decode,
// bind, emulate, shadow-arena allocation, GC scan, guest memory access) ask
// the injector whether to fail each crossing, and a separate corruption knob
// flips NaN-box payload bits so the universal-NaN path (§2) is exercised.
//
// Determinism is the design constraint: the injector's stream is a pure
// function of the seed and the crossing order, so a chaos-suite failure is
// reproduced exactly by re-running with the printed seed. No wall clock, no
// global rand.
package faultinject

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Seam names a runtime crossing where faults may be injected.
type Seam uint8

const (
	// SeamDecode fails the decoder (as if the instruction form were
	// unsupported by the FPVM front end).
	SeamDecode Seam = iota
	// SeamBind fails operand binding / address resolution.
	SeamBind
	// SeamEmulate fails the emulator dispatch itself.
	SeamEmulate
	// SeamArenaAlloc fails a shadow-cell allocation (as if the arena were
	// exhausted).
	SeamArenaAlloc
	// SeamGCScan fails the conservative scan of a GC pass (the pass is
	// abandoned without sweeping — garbage retention, never a free of a
	// live cell).
	SeamGCScan
	// SeamMemAccess fails a guest memory operand access on the emulation
	// path.
	SeamMemAccess
	// SeamSBCompile fails the trace-JIT superblock compiler (as if a
	// pre-decode or pre-bind step of the trace could not be completed); the
	// site degrades to the classic per-trap path and is blacklisted from
	// recompilation.
	SeamSBCompile
	// SeamSanitize fails the numerical sanitizer's shadow bookkeeping (as
	// if a shadow allocation or high-precision step could not complete).
	// The sanitizer truncates its report and stops observing — a typed
	// account-only degradation; the guest run itself is never harmed. The
	// seam is only crossed when a sanitizer is attached, so campaigns
	// without one see identical injection streams.
	SeamSanitize
	// SeamRunPanic is not an error seam: when it fires, the FPVM trap
	// handler PANICS instead of returning a degradable error — the shape of
	// a runtime bug the VM's own escape hatches cannot classify. Nothing
	// below the session layer recovers it by design; the seam exists to
	// prove the session-level containment story (recover → typed
	// PoisonedError → pool quarantine) under the chaos-load harness. It is
	// excluded from UniformRate and never fires unless armed explicitly.
	SeamRunPanic

	// NumSeams is the number of named seams.
	NumSeams = int(SeamRunPanic) + 1
)

var seamNames = [NumSeams]string{
	"decode", "bind", "emulate", "arena", "gc-scan", "mem-access", "sb-compile", "sanitize", "run-panic",
}

// String names the seam as it appears in specs, stats, and telemetry.
func (s Seam) String() string {
	if int(s) < NumSeams {
		return seamNames[s]
	}
	return "seam?"
}

// ParseSeam resolves a seam name from a spec string.
func ParseSeam(name string) (Seam, error) {
	for i, n := range seamNames {
		if n == name {
			return Seam(i), nil
		}
	}
	return 0, fmt.Errorf("faultinject: unknown seam %q (have %s)",
		name, strings.Join(seamNames[:], ", "))
}

// Config describes one deterministic injection campaign.
type Config struct {
	// Seed selects the pseudorandom stream. Two injectors with the same
	// Config fire at exactly the same crossings of a deterministic run.
	Seed uint64
	// Rate is the per-crossing fault probability of each seam, in [0, 1].
	Rate [NumSeams]float64
	// CorruptRate is the probability that a freshly allocated NaN-box has
	// its payload corrupted (the box stays a valid sNaN pattern but its key
	// is scrambled, so later unboxing finds no shadow cell and takes the
	// universal-NaN path).
	CorruptRate float64
	// Sites forces a seam to fire deterministically at specific guest PCs,
	// independent of Rate: every crossing of seam Sites[pc] attributed to
	// pc faults.
	Sites map[uint64]Seam
}

// UniformRate returns a copy of c with every error seam's rate set to r.
// Corruption is separate: set CorruptRate explicitly. The run-panic seam is
// also excluded — it deliberately escapes the VM's degradation engine (the
// session layer contains it), so it only fires when armed by name.
func (c Config) UniformRate(r float64) Config {
	for i := range c.Rate {
		if Seam(i) == SeamRunPanic {
			continue
		}
		c.Rate[i] = r
	}
	return c
}

// Enabled reports whether the config can ever fire.
func (c Config) Enabled() bool {
	if c.CorruptRate > 0 || len(c.Sites) > 0 {
		return true
	}
	for _, r := range c.Rate {
		if r > 0 {
			return true
		}
	}
	return false
}

// ParseSpec parses the fpvm-run -faults spec: a comma-separated list of
// key=value pairs.
//
//	seed=N          stream seed (default 1)
//	rate=P          per-crossing probability for every error seam
//	<seam>=P        per-seam override: decode, bind, emulate, arena,
//	                gc-scan, mem-access, sb-compile, sanitize
//	corrupt=P       NaN-box payload corruption probability
//	site=PC:<seam>  force the seam to fault at guest address PC (repeatable)
//
// Example: "seed=42,rate=0.001,decode=0.01,corrupt=0.0005,site=0x40:emulate".
func ParseSpec(spec string) (Config, error) {
	cfg := Config{Seed: 1}
	if strings.TrimSpace(spec) == "" {
		return cfg, fmt.Errorf("faultinject: empty spec")
	}
	for _, field := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return cfg, fmt.Errorf("faultinject: bad field %q (want key=value)", field)
		}
		switch k {
		case "seed":
			n, err := strconv.ParseUint(v, 0, 64)
			if err != nil {
				return cfg, fmt.Errorf("faultinject: seed: %w", err)
			}
			cfg.Seed = n
		case "rate":
			p, err := parseProb(k, v)
			if err != nil {
				return cfg, err
			}
			cfg = cfg.UniformRate(p)
		case "corrupt":
			p, err := parseProb(k, v)
			if err != nil {
				return cfg, err
			}
			cfg.CorruptRate = p
		case "site":
			pcs, seam, ok := strings.Cut(v, ":")
			if !ok {
				return cfg, fmt.Errorf("faultinject: site wants PC:seam, got %q", v)
			}
			pc, err := strconv.ParseUint(pcs, 0, 64)
			if err != nil {
				return cfg, fmt.Errorf("faultinject: site PC: %w", err)
			}
			s, err := ParseSeam(seam)
			if err != nil {
				return cfg, err
			}
			if cfg.Sites == nil {
				cfg.Sites = map[uint64]Seam{}
			}
			cfg.Sites[pc] = s
		default:
			s, err := ParseSeam(k)
			if err != nil {
				return cfg, fmt.Errorf("faultinject: unknown key %q", k)
			}
			p, err := parseProb(k, v)
			if err != nil {
				return cfg, err
			}
			cfg.Rate[s] = p
		}
	}
	return cfg, nil
}

func parseProb(key, v string) (float64, error) {
	p, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("faultinject: %s: %w", key, err)
	}
	if p < 0 || p > 1 {
		return 0, fmt.Errorf("faultinject: %s=%g outside [0, 1]", key, p)
	}
	return p, nil
}

// Injector is one live injection stream. It is not safe for concurrent use;
// each machine/VM pair owns its own injector (the chaos suite hands every
// run a fresh one built from the same Config).
type Injector struct {
	cfg   Config
	state uint64

	// Crossings and Fired count seam traffic; Corrupted counts scrambled
	// NaN-box payloads. Exported for reports and assertions.
	Crossings [NumSeams]uint64
	Fired     [NumSeams]uint64
	Corrupted uint64
}

// New returns an injector for cfg.
func New(cfg Config) *Injector {
	// splitmix64's recommended seed scramble keeps nearby seeds decorrelated.
	return &Injector{cfg: cfg, state: cfg.Seed*0x9E3779B97F4A7C15 + 0x1234567}
}

// Config returns the campaign the injector was built from.
func (j *Injector) Config() Config { return j.cfg }

// next is splitmix64: a tiny, high-quality, allocation-free PRNG step.
func (j *Injector) next() uint64 {
	j.state += 0x9E3779B97F4A7C15
	z := j.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// chance draws one variate and reports whether it lands under p. It always
// advances the stream so the decision sequence is independent of which
// probabilities are configured.
func (j *Injector) chance(p float64) bool {
	u := float64(j.next()>>11) / float64(1<<53) // uniform [0, 1)
	return u < p
}

// Fire reports whether the crossing of seam s attributed to guest address pc
// should fault. A site-forced seam fires on every crossing; otherwise the
// seam's configured rate decides.
func (j *Injector) Fire(s Seam, pc uint64) bool {
	j.Crossings[s]++
	forced, ok := j.cfg.Sites[pc]
	fire := ok && forced == s
	if !fire {
		fire = j.chance(j.cfg.Rate[s])
	}
	if fire {
		j.Fired[s]++
	}
	return fire
}

// CorruptBox possibly scrambles the payload of a freshly boxed value. The
// result is still a signaling-NaN pattern in FPVM's owned NaN space (the
// exponent and quiet bit are untouched and the payload is forced nonzero),
// so the runtime sees a plausible box whose key resolves to no shadow cell —
// the exact shape of a wild store or use-after-free the universal-NaN path
// must absorb. Reports whether corruption happened.
func (j *Injector) CorruptBox(bits uint64) (uint64, bool) {
	if j.cfg.CorruptRate <= 0 || !j.chance(j.cfg.CorruptRate) {
		return bits, false
	}
	const payloadMask = uint64(1)<<51 - 1
	scrambled := bits ^ (j.next() & payloadMask)
	if scrambled&payloadMask == 0 {
		scrambled |= 1 // all-zero mantissa would encode infinity, not a NaN
	}
	j.Corrupted++
	return scrambled, true
}

// TotalFired sums fault counts over all seams.
func (j *Injector) TotalFired() uint64 {
	var n uint64
	for _, f := range j.Fired {
		n += f
	}
	return n
}

// Summary renders the campaign outcome as "seam:fired/crossings" pairs, for
// chaos-suite reports.
func (j *Injector) Summary() string {
	var parts []string
	for s := 0; s < NumSeams; s++ {
		if j.Crossings[s] == 0 && j.Fired[s] == 0 {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s:%d/%d", Seam(s), j.Fired[s], j.Crossings[s]))
	}
	if j.Corrupted > 0 {
		parts = append(parts, fmt.Sprintf("corrupt:%d", j.Corrupted))
	}
	sort.Strings(parts)
	if len(parts) == 0 {
		return "no crossings"
	}
	return strings.Join(parts, " ")
}
