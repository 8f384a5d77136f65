"""zappatic benchmark: closed-loop, in-process CLI workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload construct_grid --seed 1 --seconds 26 --trace 0

One process, one thread, one client: each op is a ``zappatic.cli.main(argv)``
call (or a direct call of a public function without a CLI) with stdout
captured, and the next op starts when the previous one returns.  The op list
of a round comes from ``--seed``; whole rounds repeat until ``--seconds`` of
wall time have passed.  The package is imported from ``src/`` of this
checkout.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of one traced round, its tracing overhead, and the kernel micro-runs.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  ``--record-golden`` stores the output digests of one round for the
given seed in ``perfbench/golden.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from time import perf_counter

import kernel
import spans
import speed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(HERE, "golden.json")
DEFAULT_SEED = 1
SETUP_REPEATS = 3
MIN_TAIL_BEYOND = 10


class SetupError(Exception):
    pass


def load_zappatic():
    """Import ``zappatic`` (and its CLI) afresh from this checkout's src/."""
    if not os.path.isfile(os.path.join(SRC, "zappatic", "__init__.py")):
        raise SetupError(f"no zappatic package under {SRC}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules if m == "zappatic" or m.startswith("zappatic.")]:
        del sys.modules[name]
    pkg = importlib.import_module("zappatic")
    importlib.import_module("zappatic.cli")
    if os.path.dirname(os.path.abspath(pkg.__file__)) != os.path.join(SRC, "zappatic"):
        raise SetupError(f"zappatic was imported from {pkg.__file__}, not {SRC}")
    return pkg


def run_op(pkg, op, sampler):
    """Run one op with stdout and stderr captured: (seconds, result, stdout, stderr).

    The seconds exclude the sampler's probes taken during the op.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        sampler.start()
        try:
            result = op.run(pkg)
        except Exception as exc:  # an op that raises counts as failed
            result = exc
        finally:
            sampler.stop()
        elapsed = perf_counter() - t0 - sampler.stolen
    return elapsed, result, out.getvalue(), err.getvalue()


def op_error(op, result, stdout, stderr):
    if isinstance(result, Exception):
        return f"raised {type(result).__name__}: {result}"
    try:
        error = op.check(result, stdout)
    except Exception as exc:  # a malformed output breaks the check itself
        error = f"output check raised {type(exc).__name__}: {exc}"
    if error and stderr:
        error += f" (stderr: {stderr.strip()[:200]})"
    return error


def op_digest(op, result, stdout):
    """sha256 of stdout (or of the returned value) and of each written file."""
    text = stdout if op.argv is not None else repr(result)
    files = {}
    for path in op.outputs:
        with open(path, "rb") as fh:
            files[path] = hashlib.sha256(fh.read()).hexdigest()
    return {"stdout": hashlib.sha256(text.encode()).hexdigest(), "files": files}


class Loop:
    """Closed loop over the ops of a round, with checks and digests."""

    def __init__(self, pkg, golden):
        self.pkg = pkg
        self.golden = golden  # {label: digest} recorded for this seed, or None
        self.reference = None  # digests of the first round run
        self.latencies = []  # measured seconds per op
        self.scaled = []  # the same, scaled to the reference machine speed
        self.failures = []
        self.attempted = 0
        self._probe = None
        self._sampler = speed.Sampler()

    def run_round(self, ops, on_op=None):
        digests = {}
        for op in ops:
            before = self._probe or speed.probe()
            elapsed, result, stdout, stderr = run_op(self.pkg, op, self._sampler)
            self._probe = speed.probe()
            if on_op is not None:
                on_op(op)
            self.attempted += 1
            self.latencies.append(elapsed)
            self.scaled.append(
                elapsed * speed.scale(before, *self._sampler.samples, self._probe))
            error = op_error(op, result, stdout, stderr)
            digest = digests[op.label] = None if error else op_digest(op, result, stdout)
            if error is None and self.golden is not None and self.golden.get(op.label) != digest:
                error = "output differs from the digest recorded for this seed"
            if error is None and self.reference is not None and self.reference[op.label] != digest:
                error = "output differs from the first round"
            if error:
                self.failures.append(f"{op.label}: {error}")
        if self.reference is None:
            self.reference = digests
        return digests

    def run_for(self, ops, seconds):
        """Whole rounds until ``seconds`` of wall time have passed."""
        rounds = 0
        t0 = perf_counter()
        while rounds == 0 or perf_counter() - t0 < seconds:
            self.run_round(ops)
            rounds += 1
        return rounds

    def ops_per_s(self, start=0):
        """Ops per second of scaled op time, over the ops from ``start`` on."""
        return len(self.scaled[start:]) / sum(self.scaled[start:])


def setup(workload, seed, work_dir):
    """Import, input generation and warm-up; returns (pkg, ops, seconds, scaled seconds)."""
    before = speed.probe()
    t0 = perf_counter()
    pkg = load_zappatic()
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(f"{work_dir}/warmup")
    failures = []
    if workload.name == "analyze":
        failures += run_checked(pkg, workloads.analyze_inputs(seed, work_dir))
    ops = workload.make(seed, work_dir, pkg)
    failures += run_checked(pkg, workload.warmup(work_dir))
    if failures:
        raise SetupError("set-up failed: " + "; ".join(failures[:5]))
    elapsed = perf_counter() - t0
    return pkg, ops, elapsed, elapsed * speed.scale(before, speed.probe())


def run_checked(pkg, ops):
    loop = Loop(pkg, None)
    loop.run_round(ops)
    return loop.failures


def tail_latency(latencies):
    """Highest whole percentile with at least MIN_TAIL_BEYOND samples beyond
    it (nearest rank): (percentile, seconds, samples beyond), or None."""
    xs = sorted(latencies)
    n = len(xs)
    for p in range(99, 49, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= MIN_TAIL_BEYOND:
            return p, xs[rank - 1], n - rank
    return None


def load_golden(workload, seed):
    try:
        with open(GOLDEN, encoding="utf-8") as fh:
            entry = json.load(fh).get(workload)
    except FileNotFoundError:
        return None
    if entry is None or entry["seed"] != seed:
        return None
    return entry["ops"]


def record_golden(workload, seed, digests):
    data = {}
    if os.path.exists(GOLDEN):
        with open(GOLDEN, encoding="utf-8") as fh:
            data = json.load(fh)
    data[workload] = {"seed": seed, "ops": dict(sorted(digests.items()))}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(data.items())), fh, indent=1)
        fh.write("\n")


def as_number(x):
    return int(x) if isinstance(x, float) and x.is_integer() else x


def end_to_end(args, workload, work_dir, golden):
    runs = [setup(workload, args.seed, work_dir) for _ in range(SETUP_REPEATS)]
    pkg, ops, _, _ = runs[-1]
    loop = Loop(pkg, golden)
    rounds = loop.run_for(ops, args.seconds)
    metrics = {
        "ops_per_s": (loop.ops_per_s(), "1/s"),
        "op_p50_ms": (statistics.median(loop.scaled) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(r[3] for r in runs), "s"),
    }
    tail = tail_latency(loop.scaled)
    if tail is None:
        print(f"op_tail_ms: omitted, {len(loop.scaled)} samples leave no percentile "
              f"with {MIN_TAIL_BEYOND} beyond it")
    else:
        p, value, beyond = tail
        print(f"op_tail_ms = {value * 1e3:.3f} ms (p{p} of {len(loop.scaled)} samples, "
              f"{beyond} beyond it)")
    print(f"error_rate = {len(loop.failures)}/{loop.attempted} = "
          f"{len(loop.failures) / loop.attempted:.4f}")
    print(f"rounds = {rounds} of {len(ops)} ops; setup runs = "
          + ", ".join(f"{r[3]:.3f}" for r in runs) + " s")
    print(f"unscaled: ops_per_s = {len(loop.latencies) / sum(loop.latencies):.4f}, "
          f"op_p50_ms = {statistics.median(loop.latencies) * 1e3:.3f}, "
          f"setup_s = {statistics.median(r[2] for r in runs):.4f}; measured / scaled time = "
          f"{sum(loop.latencies) / sum(loop.scaled):.3f}")
    return metrics, loop, []


def traced(args, workload, work_dir, golden):
    pkg, ops, _, _ = setup(workload, args.seed, work_dir)
    loop = Loop(pkg, golden)
    loop.run_for(ops, args.seconds)
    untraced_ops_per_s = loop.ops_per_s()

    tracer = spans.Tracer()
    per_op = []
    first_traced = len(loop.scaled)

    def snapshot(op):
        per_op.append((op.label, {k: list(v) for k, v in tracer.spans.items()}))

    tracer.install()
    try:
        loop.run_round(ops, on_op=snapshot)
    finally:
        tracer.uninstall()
    traced_ops_per_s = loop.ops_per_s(first_traced)
    if not loop.failures:
        print(f"tracing neutral: the {len(ops)} traced ops gave the digests of the untraced round")

    errors = tracer.coverage_errors(workload.name)
    timings, disagreements = kernel.micro_runs(pkg.linalg, args.seed)
    errors += [f"kernel backends disagree on {d}" for d in disagreements]

    metrics = tracer.metrics()
    metrics["trace.ops_per_s_untraced"] = (untraced_ops_per_s, "1/s")
    metrics["trace.ops_per_s_traced"] = (traced_ops_per_s, "1/s")
    metrics["trace.overhead_ratio"] = (untraced_ops_per_s / traced_ops_per_s, "ratio")
    backend = pkg.linalg.backend_name()
    for name, us in timings[backend].items():
        metrics[name] = (us, "us")
    print(f"tracing overhead: {untraced_ops_per_s:.3f} ops/s untraced, "
          f"{traced_ops_per_s:.3f} ops/s traced ({untraced_ops_per_s / traced_ops_per_s:.3f}x)")
    for b, rows in timings.items():
        print(f"kernel micro-runs on backend {b}: "
              + ", ".join(f"{k} {v:.1f} us" for k, v in rows.items()))
    write_trace(work_dir, workload.name, args.seed, per_op)
    return metrics, loop, errors


def write_trace(work_dir, workload, seed, per_op):
    """Per-op span totals of the traced round: calls and self seconds per span."""
    ops, before = [], {}
    for label, totals in per_op:
        op_spans = {}
        for name, (calls, self_s) in totals.items():
            prev_calls, prev_self_s = before.get(name, (0, 0.0))
            if calls != prev_calls:
                op_spans[name] = [calls - prev_calls, self_s - prev_self_s]
        ops.append({"op": label, "spans": op_spans})
        before = totals
    with open(f"{work_dir}/trace.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "ops": ops}, fh, indent=1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=26)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    workload = workloads.WORKLOADS[args.workload]
    work_dir = f"perfbench/_work/{workload.name}"
    try:
        if args.record_golden:
            pkg, ops, _, _ = setup(workload, args.seed, work_dir)
            loop = Loop(pkg, None)
            digests = loop.run_round(ops)
            if loop.failures:
                raise SetupError("not recording a failing round: " + "; ".join(loop.failures))
            record_golden(workload.name, args.seed, digests)
            print(f"recorded {len(digests)} digests for {workload.name} seed {args.seed}")
            return 0
        golden = load_golden(workload.name, args.seed)
        measure = traced if args.trace else end_to_end
        metrics, loop, errors = measure(args, workload, work_dir, golden)
    except SetupError as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2

    print(f"workload {workload.name} seed {args.seed}: python {platform.python_version()}, "
          f"nproc {os.cpu_count()}, backend {sys.modules['zappatic.linalg'].backend_name()}, "
          f"golden digests {'checked' if golden else 'not recorded for this seed'}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    for line in (loop.failures + errors)[:20]:
        print(f"FAILED: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not loop.failures and not errors,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {k: {"value": as_number(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
