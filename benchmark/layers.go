package main

import "fmt"

// servingUnits are the units of the per-layer metrics that exist only on
// serve_mix.
var servingUnits = map[string]string{
	"sbcache.hit_rate":                   "share",
	"serve.queued_mean":                  "count",
	"serve.overhead_ms":                  "ms",
	"serve.request_ms.named_mpfr":        "ms",
	"serve.request_ms.named_vanilla_jit": "ms",
	"serve.request_ms.asm_vanilla":       "ms",
	"loadgen.lag_ms_tail":                "ms",
}

// layerMetrics turns the spans of n repetitions of the same program set and
// the counts of one repetition into the per-layer metrics shared by every
// workload. Counts are per repetition, so they repeat exactly; times are per
// call or per retired instruction.
func layerMetrics(layers map[string]*layerTime, c counters, n float64) map[string]metric {
	get := func(name string) layerTime {
		if lt := layers[name]; lt != nil {
			return *lt
		}
		return layerTime{}
	}
	perCall := func(lt layerTime) float64 { return ratio(float64(lt.TotalNS), float64(lt.Calls)) }
	asm, pat, run := get("asm"), get("patch"), get("machine.run")
	var arithCalls, arithNS int64
	for _, g := range arithGroupNames {
		lt := get(g)
		arithCalls += lt.Calls
		arithNS += lt.TotalNS
	}
	cnt := func(v uint64) metric { return metric{float64(v), "count"} }
	cyc := func(v uint64) metric { return metric{float64(v), "cycles"} }
	return map[string]metric{
		"asm.calls":                    {float64(asm.Calls) / n, "count"},
		"asm.ns_per_call":              {perCall(asm), "ns"},
		"patch.calls":                  {float64(pat.Calls) / n, "count"},
		"patch.ns_per_call":            {perCall(pat), "ns"},
		"patch.sites":                  cnt(c.patchSites),
		"machine.instructions":         cnt(c.instructions),
		"machine.fp_traps":             cnt(c.fpTraps),
		"machine.sb_compiled":          cnt(c.sbCompiled),
		"machine.sb_hits":              cnt(c.sbHits),
		"trap.delivery_cycles":         cyc(c.deliveryCycles),
		"fpvm.decode_hit_rate":         {ratio(float64(c.decodeHits), float64(c.decodeHits+c.decodeMisses)), "share"},
		"fpvm.emulated":                cnt(c.emulated),
		"fpvm.coalesced":               cnt(c.coalesced),
		"fpvm.promotions":              cnt(c.promotions),
		"fpvm.unboxings":               cnt(c.unboxings),
		"fpvm.gc_passes":               cnt(c.gcPasses),
		"fpvm.arena_high_water":        {float64(c.arenaHighWater), "count"},
		"fpvm.degradations":            cnt(c.degradations),
		"fpvm.decode_cycles":           cyc(c.decodeCycles),
		"fpvm.bind_cycles":             cyc(c.bindCycles),
		"fpvm.emulate_cycles":          cyc(c.emulateCycles),
		"fpvm.gc_cycles":               cyc(c.gcCycles),
		"fpvm.correctness_cycles":      cyc(c.correctCycles),
		"fpvm.engine_self_ns_per_inst": {ratio(float64(run.SelfNS), float64(c.instructions)*n), "ns"},
		"arith.calls":                  {float64(arithCalls) / n, "count"},
		"arith.apply_ns_per_call":      {perCall(get("arith.apply")), "ns"},
		"arith.convert_ns_per_call":    {perCall(get("arith.convert")), "ns"},
		"arith.format_ns_per_call":     {perCall(get("arith.format")), "ns"},
		"arith.self_share":             {ratio(float64(arithNS), float64(run.TotalNS)), "share"},
	}
}

// reconcile prints the modeled Fig 9 components of one repetition beside the
// host self time of each layer the benchmark timed (ROADMAP item 1's
// reconciliation table). Host times are per repetition.
func reconcile(workload string, layers map[string]*layerTime, c counters, n float64) {
	modeled := []struct {
		name string
		v    uint64
	}{
		{"trap delivery", c.deliveryCycles},
		{"decode", c.decodeCycles},
		{"bind", c.bindCycles},
		{"emulate (arith)", c.emulateCycles},
		{"gc", c.gcCycles},
		{"correctness", c.correctCycles},
	}
	var fpvmCyc uint64
	for _, m := range modeled {
		fpvmCyc += m.v
	}
	var hostNS int64
	for name, lt := range layers {
		if name != "program" {
			hostNS += lt.SelfNS
		}
	}
	fmt.Printf("  reconciliation (%s, per repetition): modeled cycles | host self time\n", workload)
	fmt.Printf("    %-22s %14s %6s\n", "modeled component", "cycles", "share")
	for _, m := range modeled {
		fmt.Printf("    %-22s %14d %5.1f%%\n", m.name, m.v, 100*ratio(float64(m.v), float64(c.virtCycles)))
	}
	other := c.virtCycles - fpvmCyc
	fmt.Printf("    %-22s %14d %5.1f%%\n", "guest (native work)", other, 100*ratio(float64(other), float64(c.virtCycles)))
	fmt.Printf("    %-22s %14s %6s %10s\n", "host layer (span)", "self ms", "share", "calls")
	for _, name := range sortedNames(layers) {
		lt := layers[name]
		if name == "program" {
			continue
		}
		fmt.Printf("    %-22s %14.3f %5.1f%% %10.0f\n", name, float64(lt.SelfNS)/1e6/n,
			100*ratio(float64(lt.SelfNS), float64(hostNS)), float64(lt.Calls)/n)
	}
	fmt.Println("    (machine.run self time covers machine dispatch, trap delivery and the fpvm handler together)")
}
