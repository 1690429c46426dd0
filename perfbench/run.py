"""peano-forge benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload {search,calculus,codes,cli} --seed N \\
        --seconds S --trace {0,1} [--out results.jsonl]

Run from the root of a checkout; the library is imported from its src/.
The workload's seeded op list runs round after round until S seconds have
passed (and, without tracing, at least 100 ops were timed), each op checked
outside the timed region.  --trace 0 reports the end-to-end metrics of
BENCHMARK.json; --trace 1 alternates plain and traced rounds and reports its
per-layer metrics and the tracing overhead.  The last line of stdout is one
JSON object; a wrong answer sets "correct" to false and exits 1.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import spans
import workloads
from speed import REFERENCE_S, SpeedLog

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
ORACLES = os.path.join(ROOT, "tests", "oracles.py")
MIN_OPS = 100    # op executions per run: at least ten lie beyond p90
SET_UPS = 5      # fresh processes timed for setup_s
PROBES = 5       # fresh processes timed for each cold-start figure



def metric_units(section):
    """name -> unit of the "end_to_end" or "per_layer" metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append the full result record to this JSONL file")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--inject-wrong", action="store_true",
                   help="corrupt one expected value; the run must then fail")
    return p.parse_args(argv)


def load():
    """peano_forge from this checkout's src/, and the test oracles."""
    sys.path.insert(0, SRC)
    import peano_forge
    if os.path.dirname(os.path.dirname(os.path.abspath(peano_forge.__file__))) != SRC:
        raise SystemExit(f"perfbench: peano_forge imported from {peano_forge.__file__}, not {SRC}")
    spec = importlib.util.spec_from_file_location("oracles", ORACLES)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    return peano_forge, oracles


def make_workdir(args):
    path = os.path.join(ROOT, ".perfbench", f"{args.workload}-{os.getpid()}")
    os.makedirs(path)
    return path


def setup_probe(args):
    """Import, generate the inputs, report ready: what setup_s times."""
    pf, oracles = load()
    workdir = make_workdir(args)
    try:
        workloads.build(args.workload, args.seed, pf, workdir, oracles)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def _child(argv, env=None):
    return subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env)


def timed_child(argv, speed, env=None):
    """Run a fresh process.  Returns its stdout, its wall time from spawn
    until it printed its first line, and the speed scale around it."""
    for _ in range(8):
        speed.sample()
    t0 = time.perf_counter()
    proc = _child(argv, env)
    first = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    rest = proc.stdout.read()
    if proc.wait(timeout=120) != 0:
        raise SystemExit(f"perfbench: {argv[1:]} exited {proc.returncode}")
    for _ in range(8):
        speed.sample()
    return first + rest, elapsed, speed.scale(t0, t0 + elapsed)


def time_setup(args, speed):
    out, elapsed, k = timed_child([sys.executable, os.path.abspath(__file__), "--workload",
                                   args.workload, "--seed", str(args.seed), "--seconds", "0",
                                   "--setup-probe"], speed)
    if out != "ready\n":
        raise SystemExit("perfbench: set-up probe failed")
    return elapsed * k


def cold_start_figures(speed):
    """Median import time of peano_forge, and median wall time of one CLI
    call, each over fresh processes, at the reference speed."""
    env = dict(os.environ, PYTHONPATH=SRC)
    code = ("import time; t = time.perf_counter(); import peano_forge; "
            "print(time.perf_counter() - t)")
    imports, starts = [], []
    for _ in range(PROBES):
        out, _, k = timed_child([sys.executable, "-c", code], speed, env)
        imports.append(1000 * float(out) * k)
        out, elapsed, k = timed_child([sys.executable, "-m", "peano_forge", "pair", "1", "2"],
                                      speed, env)
        if out != "8\n":
            raise SystemExit(f"perfbench: CLI cold start printed {out!r}")
        starts.append(1000 * elapsed * k)
    return statistics.median(imports), statistics.median(starts)


def cpu_now():
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb():
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(me, kids) / 1024


class Round:
    """One pass over the op list: raw timings, scaled to the reference speed
    once the round is over, then the checks."""

    def __init__(self, ops, api, speed, tracer=None):
        results, times, cpu = [], [], []
        speed.sample()
        t0 = time.perf_counter()
        for i, op in enumerate(ops):
            speed.maybe_sample()
            if tracer is not None:
                tracer.op = i
            c = cpu_now()
            s = time.perf_counter()
            try:
                result = op.call(api)
            except Exception as exc:  # the op's outcome; classified below
                result = exc
            e = time.perf_counter()
            cpu.append(cpu_now() - c)
            times.append((s, e))
            results.append(result)
        self.wall = time.perf_counter() - t0
        speed.sample()
        scales = [speed.scale(s, e) for s, e in times]
        self.latencies = [(e - s) * k for (s, e), k in zip(times, scales)]
        self.cpu = [c * k for c, k in zip(cpu, scales)]
        self.failures = check_all(ops, results)


def check_all(ops, results):
    """Raise WrongAnswer on a wrong result; return the unexpected failures."""
    failures = []
    for op, result in zip(ops, results):
        if isinstance(result, Exception) and not isinstance(result, op.errors):
            failures.append(f"{op.kind}: {type(result).__name__}: {str(result)[:200]}")
        else:
            try:
                op.check(result)
            except workloads.WrongAnswer as exc:
                raise workloads.WrongAnswer(f"{op.kind}: {exc}") from None
    return failures


def measure(args, pf, oracles, workdir):
    ops, probes = workloads.build(args.workload, args.seed, pf, workdir, oracles)
    if args.inject_wrong:
        ops[0].check = workloads.equals(lambda: "an injected wrong value")
    plain = spans.make_api(pf)
    tracer = spans.Tracer() if args.trace else None
    traced_api = spans.make_api(pf, tracer) if tracer else None
    first_hit = {i for i, op in enumerate(ops) if op.first_hit}
    set_ups = []
    speed = SpeedLog()
    rounds, traced_rounds, layer_rounds = [], [], []
    started = time.perf_counter()
    while True:
        if tracer is not None and len(rounds) > len(traced_rounds):
            mark = len(tracer.spans)
            r = Round(ops, traced_api, speed, tracer)
            if args.workload == "cli":
                r.failures += cli_main_pass(ops, tracer, pf, speed)
            traced_rounds.append(r)
            for span in tracer.spans[mark:]:
                span.scale(speed.scale(span.start, span.end))
            layer_rounds.append(spans.round_metrics(tracer.spans[mark:], r.latencies, first_hit))
        else:
            if tracer is None and len(set_ups) < SET_UPS:
                set_ups.append(time_setup(args, speed))
            rounds.append(Round(ops, plain, speed))
        if time.perf_counter() - started < args.seconds:
            continue
        if tracer is not None and traced_rounds:
            break
        if tracer is None and sum(len(r.latencies) for r in rounds) >= MIN_OPS:
            break
    while tracer is None and len(set_ups) < SET_UPS:
        set_ups.append(time_setup(args, speed))
    all_rounds = rounds + traced_rounds
    failures = [f for r in all_rounds for f in r.failures]
    attempted = sum(len(r.latencies) for r in all_rounds)
    probe_failures = check_probes(probes, plain)

    if args.trace:
        metrics = {name: statistics.median(r[name] for r in layer_rounds)
                   for name in layer_rounds[0]}
        metrics.update(spans.pooled_metrics(tracer.spans))
        # the first plain round fills the library's caches; compare warm rounds
        plain_wall = sum(per_op_median(r.latencies for r in rounds[1:] or rounds))
        traced_wall = sum(per_op_median(r.latencies for r in traced_rounds))
        metrics["trace.overhead_pct"] = 100 * (traced_wall - plain_wall) / plain_wall
        metrics["cli.import_ms"], metrics["cli.cold_start_ms"] = cold_start_figures(speed)
        units = metric_units("per_layer")
        samples = {name: len(traced_rounds) for name in units}
    else:
        # an op's latency is its median over the rounds, so a burst of load
        # from outside during one round does not reach the percentiles
        latencies = sorted(1000 * x for x in per_op_median(r.latencies for r in rounds))
        metrics = {
            "setup_s": statistics.median(set_ups),
            "wall_s": sum(latencies) / 1000,
            "cpu_s": sum(per_op_median(r.cpu for r in rounds)),
            "op_p50_ms": statistics.median(latencies),
            "op_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8],
            "peak_rss_mb": peak_rss_mb(),
        }
        units = metric_units("end_to_end")
        samples = {"setup_s": len(set_ups), "wall_s": len(rounds), "cpu_s": len(rounds),
                   "op_p50_ms": f"{len(ops)} ops x {len(rounds)} rounds",
                   "op_p90_ms": f"{len(ops)} ops x {len(rounds)} rounds", "peak_rss_mb": 1}
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": len(rounds), "traced_rounds": len(traced_rounds), "ops_per_round": len(ops),
        "round_wall_s": statistics.median(r.wall for r in rounds),
        "calibration_ms": 1000 * statistics.median(speed.took),
        "attempted": attempted, "failed": len(failures), "failures": failures[:20],
        "probes": {"attempted": len(probes), "failed": len(probe_failures),
                   "failures": probe_failures},
        "metrics": {name: metrics[name] for name in units},
        "units": units, "samples": samples,
    }
    report(record)
    return record


def per_op_median(rounds):
    """Each op's median time over the rounds."""
    return [statistics.median(samples) for samples in zip(*rounds)]


def cli_main_pass(ops, tracer, pf, speed):
    """The cli ops again through an in-process cli.main, as cli.main spans."""
    main = tracer.cli_main(pf.cli.main)
    tracer.op = -1
    failures = []
    for op in ops:
        speed.maybe_sample()
        code, out = main(list(op.argv))
        if code != 0:
            failures.append(f"in-process {op.kind}: exit {code}")
        else:
            op.check(out)
    speed.sample()
    return failures


def check_probes(probes, api):
    """Run each known-defect probe once, untimed; return its failures."""
    results = []
    for op in probes:
        try:
            results.append(op.call(api))
        except Exception as exc:  # a known defect is expected to raise here
            results.append(exc)
    return check_all(probes, results)


def report(record):
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"rounds {record['rounds']}+{record['traced_rounds']} traced  "
          f"ops/round {record['ops_per_round']}")
    print(f"  raw median round {record['round_wall_s']:.4f} s; calibration loop "
          f"{record['calibration_ms']:.4f} ms, scaled to {1000 * REFERENCE_S:g} ms")
    for name, value in record["metrics"].items():
        print(f"  {name:38s} {value:14.6g} {record['units'][name]:6s} "
              f"(n={record['samples'][name]})")
    probes = record["probes"]
    print(f"  failed_ops_ratio: timed mix {record['failed']}/{record['attempted']}, "
          f"known-defect probes {probes['failed']}/{probes['attempted']}")
    for line in record["failures"] + probes["failures"]:
        print(f"    {line}")


def main(argv=None):
    args = parse_args(argv)
    missing = [p for p in (os.path.join(SRC, "peano_forge", "__init__.py"), ORACLES)
               if not os.path.isfile(p)]
    if missing:
        print(f"perfbench: not a peano-forge checkout, missing {missing}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)
    pf, oracles = load()
    workdir = make_workdir(args)
    try:
        record = measure(args, pf, oracles, workdir)
        correct = True
    except workloads.WrongAnswer as exc:
        print(f"perfbench: WRONG ANSWER: {exc}", file=sys.stderr)
        record = {"attempted": 1, "failed": 0, "metrics": {}}
        correct = False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(record, correct=correct)) + "\n")
    metrics = {name: {"value": value, "unit": record["units"][name]}
               for name, value in record["metrics"].items()} if correct else {}
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
