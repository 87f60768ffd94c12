"""Benchmark for the derangements toolkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (see NOTES.md for why):

  perm-wide      7 transitive groups of degree 64-343, analyzed in process
  perm-deep      7 groups of degree <= 28 and order up to 40 320
  matrix         10 matrix groups in GL(2..4, q), prime and prime-power q
  verify-corpus  `derangements verify corpus --json --workers 1`, a fresh
                 process per op

Each workload is a closed loop with one client: one op at a time, the next
sent when the last returns.  A pass runs every pool entry once, in a
seeded order.  A run makes ``pools.PASSES`` whole passes at S = 16,
scaled in proportion to S for other values, at least one.  An op parses
the entry's canonical text through ``fileio`` inside the timed region, so
no chain, element list or family cache carries over from one op to the
next, then analyzes it and checks the record against ``references.json``.

Times are reported at a reference machine speed.  Between ops the run
times a fixed pure-Python loop (``calibration_work``); each pass's wall
times are multiplied by CAL_REF_S over the mean loop time seen during
that pass (an op's, by the mean of the samples just before and after it).
The raw wall times and the speed factor are printed too.

With --trace 0 the run measures set-up (median of SETUP_REPEATS fresh
set-up processes) and then the untraced loop, and reports the end-to-end
metrics.  With --trace 1 it makes half the passes untraced and half with
the layer wrappers of ``tracing.py`` installed, writes the spans to
``.bench_build/trace-<workload>-seed<N>.json`` and reports the per-layer
metrics.  Either way the last line of standard output is one JSON object;
the exit status is 0 only when every op's output was correct.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
SETUP_REPEATS = 3
TAIL_BEYOND = 10
RUN_SECONDS = 16  # the --seconds at which a run makes pools.PASSES passes

_perf = time.perf_counter


# ---------------------------------------------------------------------------
# machine speed
#
# A shared 2-vCPU virtual machine switches between a fast and a slow state
# several times a second, and the share of time spent slow drifts over
# minutes, so raw wall times of identical runs spread by up to a third.
# Every pure-Python op slows with it.  A fixed loop of the same kind of
# work (list indexing, tuple hashing, small-integer arithmetic), timed
# between ops, measures that speed; dividing by it leaves the program's own
# cost.  The loop does not touch the package.

CAL_REF_S = 0.020  # calibration_work's time in that machine's fast state
CAL_SAMPLES = 16  # calibration samples per pass, at least

_CAL_PERM = list(range(256))
random.Random(0).shuffle(_CAL_PERM)


def calibration_work() -> int:
    p, seen, acc = list(range(256)), {}, 0
    for k in range(1500):
        p = [p[i] for i in _CAL_PERM]
        seen[tuple(p[:16])] = k
        acc = (acc * 31 + sum(x * x % 59 for x in p[:96])) % 1000003
    return acc + len(seen)


def calibrate(samples: int) -> list[float]:
    """Wall times of `samples` runs of calibration_work."""
    times = []
    for _ in range(samples):
        start = _perf()
        calibration_work()
        times.append(_perf() - start)
    return times


def speed_factor(cal_times: list[float]) -> float:
    """How much slower than the reference the machine ran: 1.25 means a
    second of reference time took 1.25 s of wall time.  The mean, not the
    median: the speed flips between states within a second, and a pass's
    wall time is a sum over all of them."""
    return statistics.fmean(cal_times) / CAL_REF_S


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _wait(proc: subprocess.Popen) -> tuple[bytes, int, float]:
    """Drain stdout, reap the child; (stdout, exit code, peak RSS in MB)."""
    try:
        out = proc.stdout.read()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return out, proc.returncode, usage.ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# set-up


def measured_setup(workload: str, seed: int) -> tuple[float, float, dict]:
    """Run the set-up step SETUP_REPEATS times, each in a fresh process (so
    interpreter start and package import are paid every time).  Returns
    the median wall time at reference speed, the speed factor and the
    texts of the last run."""
    walls, cal, texts = [], [], None
    per_setup = -(-CAL_SAMPLES // SETUP_REPEATS)
    for _ in range(SETUP_REPEATS):
        cal += calibrate(per_setup)
        start = _perf()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "pools.py"), workload, str(seed)],
            stdout=subprocess.PIPE, env=_child_env(), cwd=ROOT,
        )
        out, code, _ = _wait(proc)
        walls.append(_perf() - start)
        if code != 0:
            raise RuntimeError(f"set-up for {workload} exited {code}")
        texts = json.loads(out)
    cal += calibrate(per_setup)
    factor = speed_factor(cal)
    return statistics.median(walls) / factor, factor, texts


# ---------------------------------------------------------------------------
# the closed loop


class Phase:
    """Samples from one stretch of whole passes.  ``passes`` and ``ops``
    are at reference speed; ``raw_passes`` are wall times."""

    def __init__(self):
        self.passes: list[float] = []
        self.ops: list[float] = []
        self.raw_passes: list[float] = []
        self.factors: list[float] = []
        self.rss_mb = 0.0
        self.failures: list[str] = []


def _ops_for(workload, texts, refs, fault):
    """One callable per pool entry: runs the op, returns (problems, rss)."""
    import pools

    if workload == pools.CORPUS:
        expected = refs["corpus"]["sha256"]
        argv = list(pools.CORPUS_ARGV)
        if fault == "record":
            expected = "0" * 64
        elif fault == "raise":
            argv += ["--workers", "not-a-number"]
        return [("corpus", lambda tracer, op_id: _corpus_op(argv, expected, tracer, op_id))]

    bridges = pools.bridge_records(workload)
    refs_used = refs
    if fault == "record":
        first = pools.POOLS[workload][0].name
        refs_used = json.loads(json.dumps(refs))
        refs_used["records"][first]["index"] += 1
    ops = []
    for entry in pools.POOLS[workload]:
        text = texts[entry.name]
        if fault == "raise" and entry is pools.POOLS[workload][0]:
            text = "not a group file\n"

        def op(tracer, op_id, entry=entry, text=text):
            work = pools.record_of if tracer is None else tracer.span("bench.op", pools.record_of)
            try:
                record = work(entry.kind, text)
            except Exception as exc:  # an op that raises is a failed op
                return [f"raised {type(exc).__name__}: {exc}"], 0.0
            return pools.check_record(entry, record, refs_used, bridges), 0.0

        ops.append((entry.name, op))
    return ops


def _corpus_op(argv, expected_sha, tracer, op_id):
    if tracer is None:
        cmd = [sys.executable, "-m", "derangements.cli", *argv]
    else:
        spans_path = BUILD / "corpus-spans.json"
        cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), op_id, *argv]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_child_env(), cwd=ROOT)
    out, code, rss = _wait(proc)
    problems = []
    if code != 0:
        problems.append(f"exited {code}")
    if hashlib.sha256(out).hexdigest() != expected_sha:
        problems.append(f"stdout differs from the reference ({len(out)} bytes)")
    if tracer is not None:
        tracer.merge(json.loads(spans_path.read_text()))
        spans_path.unlink()
    return problems, rss


def pass_count(workload: str, seconds: float) -> int:
    import pools

    return max(1, round(pools.PASSES[workload] * seconds / RUN_SECONDS))


def run_phase(ops, passes: int, rng: random.Random, tracer=None) -> Phase:
    """`passes` whole passes over the pool, each in a fresh seeded order,
    with calibration samples before every op and after the last.  A pass
    is scaled by the mean of all its samples, an op by the mean of the
    samples on either side of it, which follow the speed more closely.
    When a tracer is given it is installed for the phase."""
    phase = Phase()
    per_op = -(-CAL_SAMPLES // (len(ops) + 1))
    if tracer is not None:
        tracer.install()
    try:
        for k in range(passes):
            order = list(ops)
            rng.shuffle(order)
            cal, times = [calibrate(per_op)], []
            for name, op in order:
                op_id = f"{k}:{name}"
                if tracer is not None:
                    tracer.op_id = op_id
                start = _perf()
                problems, rss = op(tracer, op_id)
                times.append(_perf() - start)
                cal.append(calibrate(per_op))
                phase.rss_mb = max(phase.rss_mb, rss)
                phase.failures.extend(f"{op_id}: {p}" for p in problems)
            factor = speed_factor([t for group in cal for t in group])
            phase.factors.append(factor)
            phase.raw_passes.append(sum(times))
            phase.passes.append(sum(times) / factor)
            phase.ops.extend(t / speed_factor(cal[i] + cal[i + 1]) for i, t in enumerate(times))
    finally:
        if tracer is not None:
            tracer.uninstall()
    return phase


# ---------------------------------------------------------------------------
# metrics


def _tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it, as
    (value, percentile, samples beyond).  With too few samples for that,
    the maximum."""
    xs = sorted(samples)
    n = len(xs)
    k = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return xs[k], 100.0 * (k + 1) / n, n - 1 - k


def end_to_end(phase: Phase, setup_s: float, setup_factor: float) -> tuple[dict, list[str]]:
    tail, pct, beyond = _tail(phase.ops)
    n = len(phase.ops)
    metrics = {
        "batch_s": (statistics.median(phase.passes), "s"),
        "op_p50_s": (statistics.median(phase.ops), "s"),
        "op_tail_s": (tail, "s"),
        "peak_rss_mb": (phase.rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }
    notes = [
        f"passes {len(phase.passes)}, ops {n}",
        f"op_tail_s is p{pct:.1f} of {n} ops, {beyond} beyond",
        f"wall time: batch {statistics.median(phase.raw_passes):.4g} s, set-up {setup_s * setup_factor:.4g} s",
        f"speed factor: loop {statistics.median(phase.factors):.3f} "
        f"({min(phase.factors):.3f}-{max(phase.factors):.3f} over passes), set-up {setup_factor:.3f}",
    ]
    return metrics, notes


# Modules with a src_lines.<module> metric; a module added later counts in
# src_lines.total only, so the set of metric names stays fixed.
SRC_MODULES = ("__init__", "cli", "derange", "errors", "families", "fileio", "gf", "matgrp", "permgrp", "suite")


def src_lines() -> dict[str, int]:
    lines = {
        path.stem: len(path.read_text().splitlines())
        for path in (SRC / "derangements").glob("*.py")
    }
    out = {module: lines.get(module, 0) for module in SRC_MODULES}
    out["total"] = sum(lines.values())
    return out


def per_layer(tracer, setup_tracer, traced: Phase, import_s: float, overhead_s: float) -> dict:
    """Counts per traced pass, and times per traced pass at reference
    speed (divided by the traced phase's median speed factor)."""
    from tracing import layer_seconds

    by_name, by_layer, self_s = layer_seconds(tracer.spans, tracer.leaf_seconds)
    factor = statistics.median(traced.factors)
    setup_build = 0.0
    if setup_tracer is not None:
        setup_build = layer_seconds(setup_tracer.spans, setup_tracer.leaf_seconds)[1]["families"]
    c = tracer.counts
    passes = len(traced.passes)

    def per_pass(value):
        return value / passes

    def time_per_pass(seconds):
        return seconds / passes / factor

    seeds = c["permgrp.block_seed.calls"]
    metrics = {
        "fileio.load_s": (time_per_pass(by_name["fileio.load"]), "s"),
        "permgrp.self_s": (time_per_pass(self_s["permgrp"]), "s"),
        "permgrp.groups_built": (per_pass(c["permgrp.groups_built.calls"]), "count"),
        "permgrp.order_s": (time_per_pass(by_name["permgrp.order"]), "s"),
        "permgrp.order_calls": (per_pass(c["permgrp.order.calls"]), "count"),
        "permgrp.membership_s": (time_per_pass(by_name["permgrp.membership"]), "s"),
        "permgrp.membership_tests": (per_pass(c["permgrp.membership.calls"]), "count"),
        "permgrp.stabilizer_s": (time_per_pass(by_name["permgrp.stabilizer"]), "s"),
        "permgrp.stabilizer_calls": (per_pass(c["permgrp.stabilizer.calls"]), "count"),
        "permgrp.normal_closure_s": (time_per_pass(by_name["permgrp.normal_closure"]), "s"),
        "permgrp.block_systems_s": (time_per_pass(by_name["permgrp.block_systems"]), "s"),
        "permgrp.block_seeds": (per_pass(seeds), "count"),
        "permgrp.block_seed_yield": (c["permgrp.block_systems_found"] / seeds if seeds else 0.0, "ratio"),
        "permgrp.quotient_s": (time_per_pass(by_name["permgrp.quotient"]), "s"),
        "permgrp.rank_s": (time_per_pass(by_name["permgrp.rank"]), "s"),
        "derange.self_s": (time_per_pass(self_s["derange"]), "s"),
        "derange.index_consequences_s": (time_per_pass(by_name["derange.index_consequences"]), "s"),
        "derange.bound_check_s": (time_per_pass(by_name["derange.bound_check"]), "s"),
        "derange.fingerprint_s": (time_per_pass(by_name["derange.fingerprint"]), "s"),
        "derange.fingerprint_calls": (per_pass(c["derange.fingerprint.calls"]), "count"),
        "matgrp.self_s": (time_per_pass(self_s["matgrp"]), "s"),
        "matgrp.closure_s": (time_per_pass(by_name["matgrp.closure"]), "s"),
        "matgrp.closure_calls": (per_pass(c["matgrp.closure.calls"]), "count"),
        "matgrp.eigenvalue_one_s": (time_per_pass(by_name["matgrp.eigenvalue_one"]), "s"),
        "matgrp.eigen_generators": (per_pass(c["matgrp.eigen_generators"]), "count"),
        "matgrp.index_bound_s": (time_per_pass(by_name["matgrp.index_bound"]), "s"),
        "matgrp.irreducibility_s": (time_per_pass(by_name["matgrp.irreducibility"]), "s"),
        "matgrp.quotient_s": (time_per_pass(by_name["matgrp.quotient"]), "s"),
        "matgrp.matrix_mults": (per_pass(c["matgrp.matrix_mult.calls"]), "count"),
        "matgrp.vector_images": (per_pass(c["matgrp.vector_image.calls"]), "count"),
        "gf.self_s": (time_per_pass(self_s["gf"]), "s"),
        "gf.field_ops": (per_pass(c["gf.field_op.calls"]), "count"),
        "families.build_s": (setup_build / factor + time_per_pass(by_layer["families"]), "s"),
        "suite.self_s": (time_per_pass(self_s["suite"]), "s"),
        "suite.corpus_record_s": (time_per_pass(by_name["suite.corpus_record"]), "s"),
        "cli.import_s": (time_per_pass(by_name["cli.import"]) if by_name["cli.import"] else import_s / factor, "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    for module, lines in src_lines().items():
        metrics[f"src_lines.{module}"] = (lines, "lines")
    return metrics


# ---------------------------------------------------------------------------
# entry point


def _report(metrics: dict, notes: list[str], phases: list[Phase]) -> int:
    """Print the failures, the metrics by name and the result line; returns
    the exit status."""
    attempted = sum(len(p.ops) for p in phases)
    failures = [f for p in phases for f in p.failures]
    for f in failures:
        print(f"FAILED {f}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<32} {value:.6g} {unit}")
    print(f"{'fail_ratio':<32} {len(failures) / attempted:.6g} ({len(failures)}/{attempted} ops)")
    for note in notes:
        print(note)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--inject-fault", choices=("record", "raise"),
        help="self-test: corrupt the first entry's reference record, or make its op raise",
    )
    args = parser.parse_args(argv)
    if not (SRC / "derangements" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'derangements'}", file=sys.stderr)
        return 2

    # One CPU for the run and every process it starts: the two CPUs of a
    # shared machine slow down independently, so the calibration loop must
    # run where the ops run.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    start = _perf()
    import derangements.cli  # noqa: F401
    import pools
    import tracing

    import_s = _perf() - start
    if args.workload not in pools.POOLS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(pools.WORKLOADS)}", file=sys.stderr)
        return 2
    BUILD.mkdir(exist_ok=True)
    refs = pools.load_references()
    rng = random.Random(f"order:{args.workload}:{args.seed}")

    if not args.trace:
        setup_s, setup_factor, texts = measured_setup(args.workload, args.seed)
        pools.warm_catalog(refs, texts)
        ops = _ops_for(args.workload, texts, refs, args.inject_fault)
        phase = run_phase(ops, pass_count(args.workload, args.seconds), rng)
        if args.workload != pools.CORPUS:
            phase.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics, notes = end_to_end(phase, setup_s, setup_factor)
        return _report(metrics, notes, [phase])

    setup_tracer = None
    if args.workload == pools.CORPUS:
        texts = {}
    else:
        setup_tracer = tracing.Tracer()
        setup_tracer.op_id = "setup"
        setup_tracer.install()
        try:
            texts = setup_tracer.span("bench.setup", pools.build_texts)(args.workload, args.seed, refs)
        finally:
            setup_tracer.uninstall()
    ops = _ops_for(args.workload, texts, refs, args.inject_fault)
    passes = pass_count(args.workload, args.seconds / 2)
    plain = run_phase(ops, passes, rng)
    tracer = tracing.Tracer()
    traced = run_phase(ops, passes, rng, tracer)
    overhead = statistics.median(traced.passes) - statistics.median(plain.passes)
    metrics = per_layer(tracer, setup_tracer, traced, import_s, overhead)
    trace_path = BUILD / f"trace-{args.workload}-seed{args.seed}.json"
    trace_path.write_text(json.dumps({
        "setup": setup_tracer.dump() if setup_tracer else None,
        "ops": tracer.dump(),
    }))
    notes = [f"untraced passes {len(plain.passes)}, traced passes {len(traced.passes)}", f"spans written to {trace_path.relative_to(ROOT)}"]
    return _report(metrics, notes, [plain, traced])


if __name__ == "__main__":
    sys.exit(main())
