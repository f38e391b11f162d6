#!/usr/bin/env python3
"""Engine benchmark of the Req-block simulator.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload write-heavy|read-mostly|aged-gc \
        --seed N --seconds S --trace 0|1

Builds perfbench/engine_bench from the sources next to it (CMake, into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), then for S
seconds starts fresh engine_bench processes, each replaying the workload's
request stream once, and summarises them:

  --trace 0  every end-to-end metric: host set-up, replay rate, teardown
             and peak memory as medians over the processes, plus the
             simulated results, which every process must repeat exactly;
  --trace 1  every per-layer metric: processes alternate untraced and
             traced (self-profiler, latency attribution, per-step timers);
             the per-layer figures come from the traced process with the
             median replay time, so its parts add up to its own replay.

Every process checks its outputs (see engine_bench.cc); this script adds
the cross-process checks. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The exit status is nonzero
when the build fails, a process fails, or any check fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("write-heavy", "read-mostly", "aged-gc")
MIN_ROUNDS = 3   # processes (pairs with --trace 1) per run, at least
MAX_ROUNDS = 25  # and at most
PROCESS_TIMEOUT_S = 150


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds engine_bench; returns its path."""
    target_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    bdir = os.path.join(ROOT, target_root, "perfbench")
    configure = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    make = ["cmake", "--build", bdir, "--target", "engine_bench", "-j", "4"]

    def ok(cmd):
        # Build chatter goes to stderr: stdout ends with the result line.
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0

    # An existing build tree is only rebuilt; configure when there is none,
    # or when rebuilding it fails (say, an earlier configure broke off).
    configured = os.path.exists(os.path.join(bdir, "CMakeCache.txt"))
    if not (configured and ok(make)) and not (ok(configure) and ok(make)):
        raise SystemExit("perfbench: building engine_bench failed")
    return os.path.join(bdir, "engine_bench")


def run_once(binary, workload, seed, traced):
    """One fresh process, one replay; returns its parsed report."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--traced", "1" if traced else "0"]
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit("perfbench: engine_bench timed out: " + " ".join(cmd))
    lines = p.stdout.strip().splitlines()
    # Exit 1 is a replay whose checks failed: its report still counts.
    if p.returncode not in (0, 1) or not lines:
        log(p.stderr)
        raise SystemExit("perfbench: engine_bench failed (exit %d): %s"
                         % (p.returncode, " ".join(cmd)))
    report = json.loads(lines[-1])
    host = report["host"]
    log("perfbench: %s process: setup %.4f s, replay %.4f s, teardown %.4f s, "
        "peak %.1f MiB" % ("traced" if traced else "untraced", host["setup_s"],
                           host["replay_s"], host["teardown_s"],
                           host["peak_rss_mb"]))
    return report


def measure(binary, workload, seed, seconds, trace):
    """Fresh processes until `seconds` are spent (at least MIN_ROUNDS).

    A round is one untraced process, plus one traced process with --trace
    1. A new round starts only when the median round so far still fits in
    the time left."""
    untraced, traced, walls = [], [], []
    start = time.monotonic()
    while len(walls) < MAX_ROUNDS:
        left = seconds - (time.monotonic() - start)
        if len(walls) >= MIN_ROUNDS and left < statistics.median(walls):
            break
        t0 = time.monotonic()
        untraced.append(run_once(binary, workload, seed, False))
        if trace:
            traced.append(run_once(binary, workload, seed, True))
        walls.append(time.monotonic() - t0)
    return untraced, traced


class Verdict:
    def __init__(self):
        self.ok = True

    def expect(self, name, ok, detail=""):
        if not ok:
            self.ok = False
            log("perfbench: check failed: %s %s" % (name, detail))


def median_of(reports, key):
    return statistics.median(r["host"][key] for r in reports)


def end_to_end(untraced):
    sim = untraced[0]["sim"]
    return {
        "setup_s": median_of(untraced, "setup_s"),
        "replay_rps": statistics.median(
            r["host"]["replayed"] / r["host"]["replay_s"] for r in untraced),
        "teardown_s": median_of(untraced, "teardown_s"),
        "peak_rss_mb": median_of(untraced, "peak_rss_mb"),
        "sim_mean_ms": sim["mean_ns"] / 1e6,
        "sim_read_mean_ms": sim["read_mean_ns"] / 1e6,
        "sim_p9999_ms": sim["p9999_ns"] / 1e6,
        "sim_hit_ratio": sim["hit_ratio"],
        "sim_flash_writes": sim["host_page_writes"],
        "sim_waf": waf(sim),
    }


def waf(sim):
    """Write amplification recomputed from the flash counters."""
    return (sim["host_page_writes"] + sim["gc_page_moves"]) / sim["host_page_writes"]


def per_layer(untraced, traced, verdict):
    # The traced process with the median replay time supplies every host
    # figure, so its parts add up to its own replay time.
    ranked = sorted(traced, key=lambda r: r["host"]["replay_s"])
    rep = ranked[(len(ranked) - 1) // 2]
    host, sim, layers = rep["host"], rep["sim"], rep["layers"]
    prof = layers["profile"]

    def sec(section):
        return prof.get(section, {}).get("s", 0.0)

    def calls(section):
        return prof.get(section, {}).get("calls", 0)

    serve_s = sec("cache_serve")
    loop_s = host["replay_s"] - serve_s
    verdict.expect("layers.loop_nonnegative", loop_s >= 0.0,
                   "replay %.6f s < cache_serve %.6f s" % (host["replay_s"], serve_s))
    verdict.expect("layers.parts_add_up",
                   abs(loop_s + serve_s - host["replay_s"]) <= 1e-9 * host["replay_s"])
    reqblock = rep["policy"] == "Req-block"
    attr_ms = {k: v / layers["attr_requests"] / 1e6
               for k, v in layers["attr_ns"].items()}
    values = {
        "trace.gen_s": host["gen_s"],
        "sim.construct_s": host["construct_s"],
        "mem.setup_mb": host["setup_mb"],
        "sim.replay_s": host["replay_s"],
        "sim.step_p50_ns": layers["step_p50_ns"],
        "sim.step_p99_ns": layers["step_p99_ns"],
        "sim.loop_s": loop_s,
        "sim.finish_s": host["finish_s"],
        "sim.destroy_s": host["destroy_s"],
        "sim.tracing_overhead_s":
            median_of(traced, "replay_s") - median_of(untraced, "replay_s"),
        "cache.serve_s": serve_s,
        "cache.serve_ns": serve_s * 1e9 / max(calls("cache_serve"), 1),
        "cache.serve_calls": calls("cache_serve"),
        "cache.evict_flush_s": sec("evict_flush"),
        "cache.evictions": sim["evictions"],
        "cache.flushed_pages": sim["flushed_pages"],
        "cache.bypass_pages": sim["bypass_pages"],
        "core.pages_per_evict": sim["pages_per_evict"] if reqblock else 0.0,
        "core.metadata_kb": sim["metadata_bytes"] / 1024 if reqblock else 0.0,
        "ssd.read_s": sec("ftl_read"),
        "ssd.read_calls": calls("ftl_read"),
        "ssd.program_s": sec("ftl_program"),
        "ssd.program_calls": calls("ftl_program"),
        "ssd.gc_s": sec("gc"),
        "ssd.gc_calls": calls("gc"),
        "ssd.host_page_reads": sim["host_page_reads"],
        "ssd.gc_page_moves": sim["gc_page_moves"],
        "ssd.erases": sim["erases"],
        "ssd.moves_per_erase": sim["gc_page_moves"] / max(sim["erases"], 1),
        "ssd.chip_util": sim["chip_util"],
        "ssd.channel_util": sim["channel_util"],
        "fault.ecc_attempts": sim["ecc_attempts"],
        "fault.retry_steps": sim["retry_steps"],
        "fault.parity_rebuilds": sim["parity_rebuilds"],
        "fault.patrol_pages_moved": sim["patrol_pages_moved"],
        "fault.disturb_migrations": sim["disturb_migrations"],
        "attr.cache_lookup_ms": attr_ms["cache_lookup"],
        "attr.evict_stall_ms": attr_ms["evict_stall"],
        "attr.ftl_read_ms": attr_ms["ftl_read"],
        "attr.gc_ms": attr_ms["gc"],
        "attr.fault_retry_ms": attr_ms["fault_retry"],
        "mem.replay_growth_mb": host["replay_growth_mb"],
    }
    # queue_wait, throttle and ftl_program are zero on all three workloads
    # (the host front end is inert, nothing bypasses the buffer), so they
    # are not reported; all eight components still add up to the total.
    verdict.expect("layers.attr_sums_to_mean",
                   sum(layers["attr_ns"].values()) == sim["response_sum_ns"])
    return values


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = build()
    untraced, traced = measure(binary, args.workload, args.seed, args.seconds,
                               args.trace == 1)
    reports = untraced + traced
    first = untraced[0]
    print("perfbench: workload=%s seed=%d policy=%s build_type=%s audit=%s "
          "processes=%d" % (args.workload, args.seed, first["policy"],
                            first["build_type"], first["audit_level"],
                            len(reports)))

    verdict = Verdict()
    for r in reports:
        verdict.expect("process.checks", r["ok"],
                       json.dumps({k: v for k, v in r["checks"].items() if not v}))
        verdict.expect("process.build_type", r["build_type"] == "RelWithDebInfo",
                       r["build_type"])
    # Simulated results are a pure function of the seed: every process,
    # traced or not, must report the identical "sim" block.
    for r in reports[1:]:
        diff = sorted(k for k in first["sim"] if r["sim"].get(k) != first["sim"][k])
        verdict.expect("sim.repeats_exactly", not diff,
                       "traced=%s differs in %s" % (r["traced"], diff))
    verdict.expect("sim.waf_recomputes", abs(waf(first["sim"]) - first["sim"]["waf"])
                   <= 1e-12 * first["sim"]["waf"])

    values = per_layer(untraced, traced, verdict) if traced else end_to_end(untraced)
    result = {
        "correct": verdict.ok,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        # Names, units and order come from BENCHMARK.json.
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in spec["per_layer" if traced else "end_to_end"]},
    }
    print(json.dumps(result))
    return 0 if verdict.ok else 1


if __name__ == "__main__":
    sys.exit(main())
