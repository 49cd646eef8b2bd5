"""peermarket benchmark: one workload per process, every metric by name.

    python3 perfbench/run.py --workload scenarios|sweep|montecarlo \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout, never from an installed copy. ``--trace 0`` measures the
end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Everything the run writes goes under
``.perfbench-work/`` in the checkout. README.md next to this file defines
every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
WORK = ROOT / ".perfbench-work"

THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
MIN_PASSES = 2     # every market is timed at least twice; its best time counts
SETUP_PROBES = 7   # fresh processes timed for setup_s, median reported
PROBE_TIMEOUT_S = 60
TAIL_BEYOND = 10   # samples a tail percentile must have beyond it


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("scenarios", "sweep", "montecarlo"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def pin_environment():
    """Single-threaded BLAS, no inherited output directory, no bytecode
    or temporary files outside the work directory. Runs before numpy is
    imported."""
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"
    os.environ.pop("PEERMARKET_OUTPUT_DIR", None)
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    sys.dont_write_bytecode = True
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)


def measure_setup():
    """Median seconds of SETUP_PROBES cold set-ups, each in a fresh process."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, str(HERE / "probe.py"), str(ROOT)],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples), samples


def tail(values):
    """(value, percentile, samples beyond) of the highest nearest-rank
    percentile with TAIL_BEYOND samples beyond it; below 2*TAIL_BEYOND
    samples that percentile would not be a tail, so the maximum is given."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    rank = n - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / n, TAIL_BEYOND


def code_digest():
    """Hash of the package and benchmark sources: the identity under which
    iteration fingerprints and report hashes are remembered."""
    digest = hashlib.sha256()
    for base in (SOURCE, HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
                digest.update(path.read_bytes())
    return digest.hexdigest()


def check_ledger(path, key, fingerprint, hashes):
    """Compare per-market iteration counts and verdicts, and report hashes,
    with earlier runs of the same code (``key``) and remember them; returns
    the names that disagree."""
    book = json.loads(path.read_text()) if path.is_file() else {}
    entry = book.setdefault(key, {"fingerprint": {}, "hashes": {}})
    mismatches = [label for label, value in fingerprint.items()
                  if entry["fingerprint"].get(label, value) != value]
    mismatches += [name for name, value in hashes.items()
                   if entry["hashes"].get(name, value) != value]
    if not mismatches:
        entry["fingerprint"].update(fingerprint)
        entry["hashes"].update(hashes)
        staging = path.with_suffix(".tmp")
        staging.write_text(json.dumps(book, sort_keys=True))
        os.replace(staging, path)
    return mismatches


def fingerprint(passes):
    """label -> [iterations, failures] for every market, and the labels whose
    counts or verdicts differ between passes of this run."""
    seen, unstable = {}, set()
    for one in passes:
        for market in one.markets:
            value = [market.iterations, list(market.failures)]
            if seen.setdefault(market.label, value) != value:
                unstable.add(market.label)
    for one in passes[1:]:
        unstable.update(name for name, value in one.hashes.items()
                        if passes[0].hashes.get(name) != value)
    return seen, sorted(unstable)


def timings(passes, clock):
    """markets_per_s, market_p50_s and market_tail_s with intervals
    converted by ``clock(start, end)``, plus the tail's percentile."""
    best = {}
    for one in passes:
        for market in one.markets:
            seconds = clock(market.start, market.start + market.seconds)
            best[market.label] = min(best.get(market.label, seconds), seconds)
    fastest = min(clock(one.start, one.start + one.seconds) for one in passes)
    tail_value, percentile, beyond = tail(best.values())
    values = {
        "markets_per_s": len(passes[0].markets) / fastest,
        "market_p50_s": statistics.median(best.values()),
        "market_tail_s": tail_value,
    }
    return values, {"percentile": percentile, "samples": len(best), "beyond": beyond}


def end_to_end(passes, setup_s, speed):
    markets = [m for one in passes for m in one.markets]
    metrics, tail_note = timings(passes, speed.seconds)
    metrics.update({
        "setup_s": setup_s,
        "pass_ratio": sum(m.passed for m in markets) / len(markets),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    wall, _ = timings(passes, lambda start, end: end - start)
    notes = {"market_tail_s": tail_note,
             "pass_seconds": [one.seconds for one in passes],
             "wall_clock": wall}
    return metrics, notes


def per_layer(tracer, traced, untraced):
    busy, counters = tracer.busy, tracer.counters
    engine_s = busy("engine")
    iterations = counters.get("engine.iterations", 0)
    calls = tracer.calls("engine")

    def violations(clause):
        return sum(clause in m.failures for m in traced.markets)

    return {
        "engine.busy_s": engine_s,
        "engine.calls": calls,
        "engine.iterations": iterations,
        "engine.us_per_iter": 1e6 * engine_s / iterations if iterations else 0.0,
        "engine.iterations_max": counters.get("engine.iterations_max", 0),
        "engine.cap_stops": counters.get("engine.cap_stops", 0),
        "engine.converged_ratio": counters.get("engine.converged", 0) / calls if calls else 0.0,
        "oracle.qp_s": busy("oracle.qp"),
        "oracle.qp_calls": tracer.calls("oracle.qp"),
        "oracle.qp_iterations": counters.get("oracle.qp_iterations", 0),
        "oracle.bisection_s": busy("oracle.bisection"),
        "oracle.net_violations": violations("net"),
        "oracle.objective_violations": violations("objective"),
        "oracle.kkt_violations": violations("kkt"),
        "distances.matrix_s": busy("distances.matrix"),
        "distances.zone_crossing_s": busy("distances.zone_crossing"),
        "network.load_s": busy("network.load"),
        "community.load_s": busy("community.load"),
        "scenario.load_s": busy("scenario.load"),
        "policies.build_gamma_s": busy("policies.build_gamma"),
        "powerflow.busy_s": busy("powerflow"),
        "powerflow.calls": counters.get("powerflow.calls", 0),
        "reports.busy_s": busy("reports"),
        "reports.bytes": counters.get("reports.bytes", 0),
        "reports.files": counters.get("reports.files", 0),
        "sweep.self_s": tracer.self_time("sweep"),
        "cli.self_s": tracer.self_time("cli"),
        "trace.overhead_s": traced.seconds - untraced.seconds,
    }


def measure_untraced(workload, gate, seconds):
    """Whole passes until ``seconds`` have gone by, at least MIN_PASSES."""
    from hostspeed import HostSpeed

    setup_s, setup_samples = measure_setup()
    speed = HostSpeed()
    passes = []
    start = time.perf_counter()
    with gate.installed(), speed.sampling():
        while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
            passes.append(workload.run_pass())
    metrics, notes = end_to_end(passes, setup_s, speed)
    notes["setup_samples_s"] = setup_samples
    return passes, metrics, notes


def measure_traced(package, workload, gate, args):
    """One untraced pass, then the set-up and one pass under tracing."""
    from bundle import load_bundle
    from spans import Tracer

    tracer = Tracer()
    with gate.installed():
        untraced = workload.run_pass()
    with tracer.installed(package):
        load_bundle(package)
        with gate.installed():
            traced = workload.run_pass()
    (WORK / "spans").mkdir(parents=True, exist_ok=True)
    span_file = WORK / "spans" / f"{args.workload}-seed{args.seed}.json"
    span_file.write_text(json.dumps(tracer.rows()))
    notes = {"spans": str(span_file.relative_to(ROOT))}
    return [untraced, traced], per_layer(tracer, traced, untraced), notes


def environment(args):
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SOURCE / "peermarket" / "__init__.py").is_file():
        print(f"perfbench: no peermarket sources under {SOURCE}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pin_environment()
    sys.path.insert(0, str(SOURCE))

    import peermarket
    import peermarket.cli  # noqa: F401  (loads the CLI so its names can be wrapped)

    if not Path(peermarket.__file__).resolve().is_relative_to(SOURCE):
        print(f"perfbench: peermarket imported from {peermarket.__file__}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS, EngineGate

    gate = EngineGate(peermarket)
    workload = WORKLOADS[args.workload](peermarket, gate, str(WORK / "reports"), args.seed)
    if args.trace == 0:
        passes, metrics, notes = measure_untraced(workload, gate, args.seconds)
        wanted = spec["end_to_end"]
    else:
        passes, metrics, notes = measure_traced(peermarket, workload, gate, args)
        wanted = spec["per_layer"]
    if set(metrics) != {entry["name"] for entry in wanted}:
        raise RuntimeError("computed metrics do not match BENCHMARK.json")
    report = {entry["name"]: {"value": metrics[entry["name"]], "unit": entry["unit"]}
              for entry in wanted}

    prints, unstable = fingerprint(passes)
    mismatches = check_ledger(WORK / "ledger.json", f"{code_digest()}/{args.workload}",
                              prints, passes[0].hashes)
    if unstable or mismatches:
        print(f"not reproducible: within run {unstable}, against earlier runs {mismatches}",
              file=sys.stderr)

    markets = [m for one in passes for m in one.markets]
    failed = sum(not m.passed for m in markets)
    reasons = {}
    for market in markets:
        for clause in market.failures:
            reasons[clause] = reasons.get(clause, 0) + 1

    results = {"environment": environment(args), "notes": notes, "failures": reasons,
               "fingerprint": prints, "report_hashes": passes[0].hashes, "metrics": report}
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    (WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(results, indent=1, sort_keys=True))

    print("environment: " + json.dumps(results["environment"], sort_keys=True))
    for name, entry in report.items():
        print(f"{name} = {entry['value']!r} {entry['unit']}")
    print(f"fail_ratio = {failed}/{len(markets)} = {failed / len(markets):.4f}"
          + (f" ({', '.join(f'{k} {v}' for k, v in sorted(reasons.items()))})" if reasons else ""))
    if "pass_seconds" in notes:
        print(f"passes: {len(passes)}, seconds {[round(x, 3) for x in notes['pass_seconds']]}")
    if "wall_clock" in notes:
        print("wall clock, before host-speed scaling: "
              + ", ".join(f"{k} = {v!r}" for k, v in notes["wall_clock"].items()))
    if "market_tail_s" in notes:
        t = notes["market_tail_s"]
        print(f"market_tail_s is p{t['percentile']:.1f} of {t['samples']} markets' best "
              f"times, {t['beyond']} beyond it")
    print(json.dumps({"correct": not (unstable or mismatches), "attempted": len(markets),
                      "failed": failed, "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
