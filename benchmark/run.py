"""rqc benchmark: one workload per process, closed loop, one caller.

    python3 benchmark/run.py --workload compile-g --seed 1 --seconds 20 --trace 0

Builds the workload's circuits from --seed, warms up, then runs whole
passes over the circuits for about --seconds of scaled op time (at
least two, so every input runs twice; see Run.one_pass for the
scaling and untraced for the pass count). Every op is checked,
and once per circuit, after timing, an independent engine checks the
lowered circuits. The last stdout line is one JSON object: end-to-end
metrics with --trace 0, per-layer metrics from a traced pass with --trace 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import CLOCK, Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# set-up probes: at least this many, and until this much scaled time is
# spent, so that a quick set-up gets a median over more processes
SETUP_PROBES = 3
SETUP_PROBE_S = 2.0


THREAD_POOL_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)


def load_rqc():
    """Import rqc from this checkout's src/ and the workloads built on it."""
    # BLAS/OpenMP pools are sized when numpy loads; set-up probes inherit these
    for var in THREAD_POOL_VARS:
        os.environ[var] = "1"
    if not (SRC / "rqc" / "__init__.py").is_file():
        sys.exit(f"error: no rqc sources at {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import rqc

    if Path(rqc.__file__).resolve().parent != SRC / "rqc":
        sys.exit(f"error: imported rqc from {rqc.__file__}, not from {SRC}")
    import workloads

    return workloads


def _args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("compile-g", "synth-tight", "verify-wide"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


class Run:
    """Op samples, failures and the per-item outcomes the checks keep."""

    def __init__(self, workload, items):
        self.w = workload
        self.items = items
        self.first: dict[int, object] = {}
        self.ok_per_item = [0] * len(items)
        self.samples: list[float] = []  # scaled times of the ops that passed
        self.raw_samples: list[float] = []
        self.references: list[float] = []
        self.wrong = 0
        self.failures: list[str] = []
        self.attempted = 0

    def one_pass(self) -> tuple[float, float]:
        """Runs every input once; returns the pass's op time, scaled and raw.

        The workload's reference work is timed before the first op and
        after each, and each op's time is scaled by reference_s over the
        mean of the two reference times around it. The host's speed
        drifts by up to 2x within minutes; the scaled time follows the
        program and leaves most of that drift out.
        """
        scaled = raw = 0.0
        ref = timed(self.w.reference)
        for i, item in enumerate(self.items):
            passed = len(self.raw_samples)
            dt = self.one_op(i, item)
            after = timed(self.w.reference)
            self.references.append(after)
            s = dt * self.w.reference_s * 2 / (ref + after)
            if len(self.raw_samples) > passed:
                self.samples.append(s)
            ref = after
            scaled += s
            raw += dt
        return scaled, raw

    def one_op(self, i: int, item, tracer=None) -> float:
        """Run, time and check one op; returns its duration. A passing
        op's duration goes to raw_samples."""
        self.attempted += 1
        if tracer is not None:
            tracer.op = self.attempted
            tracer.install()
        t0 = CLOCK()
        try:
            out = self.w.op(item)
        except Exception as e:  # a failed op is counted, the run goes on
            out = e
        dt = CLOCK() - t0
        if tracer is not None:
            tracer.uninstall()
            tracer.op = None
        try:
            if isinstance(out, Exception):
                raise out
            problems, outcome = self.w.check(item, out, self.first.get(i))
        except Exception as e:
            problems = [f"{type(e).__name__}: {e}"]
        del out
        if problems:
            self.failures.append(f"{item.name}: {'; '.join(problems)}")
            return dt
        self.first.setdefault(i, outcome)
        self.ok_per_item[i] += 1
        self.raw_samples.append(dt)
        return dt

    def deep_checks(self) -> None:
        for i, item in enumerate(self.items):
            if i not in self.first:
                continue
            try:
                problems = self.w.deep_check(item, self.first[i])
            except Exception as e:
                problems = [f"{type(e).__name__}: {e}"]
            if problems:
                # every passing op on this input gave the same wrong output
                self.failures.append(f"{item.name} (independent check): {'; '.join(problems)}")
                self.wrong += self.ok_per_item[i]

    @property
    def failed(self) -> int:
        return self.attempted - len(self.raw_samples) + self.wrong


def timed(f) -> float:
    t0 = CLOCK()
    f()
    return CLOCK() - t0


def tail(samples: list[float]) -> tuple[float, int]:
    """Highest whole percentile with at least ten samples beyond it (nearest rank)."""
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        raise ValueError(f"{n} samples leave no percentile with ten beyond it")
    p = 99
    while n - math.ceil(p * n / 100) < 10:
        p -= 1
    return xs[math.ceil(p * n / 100) - 1], p


def environment(seed: int) -> dict:
    import mpmath
    import numpy

    env = {
        "nproc": os.cpu_count(),
        "cpu_model": platform.processor() or "unknown",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "seed": seed,
        "commit": _commit(),
        "src_sha256": _src_digest(),
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                env[f"l{level}_cache"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return env


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "rqc").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def setup_seconds(w) -> tuple[list[float], list[float], list[float]]:
    """Scaled, CPU and wall seconds from the start of a fresh process that
    imports rqc and warms up until it is ready for the first op. The CPU
    time is scaled like an op's, by the reference work timed in this
    process right before and after the probe."""
    scaled, cpu, wall = [], [], []
    while len(cpu) < SETUP_PROBES or sum(scaled) < SETUP_PROBE_S:
        ref = timed(w.reference)
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--workload", w.name, "--setup-probe"],
            stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            line = proc.stdout.readline()
            wall.append(time.perf_counter() - t0)
            proc.stdout.read()
            proc.wait(timeout=60)
        word, _, seconds = line.partition(" ")
        if proc.returncode != 0 or word != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        cpu.append(float(seconds))
        scaled.append(cpu[-1] * w.reference_s * 2 / (ref + timed(w.reference)))
    return scaled, cpu, wall


def main(argv=None) -> int:
    args = _args(argv)
    workloads = load_rqc()
    w = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        w.warm_up()
        print(f"ready {CLOCK()!r}", flush=True)
        return 0

    items = w.items(args.seed)
    run = Run(w, items)
    env = environment(args.seed)
    if args.trace:
        result = traced(run, w, args)
    else:
        result = untraced(run, w, args)
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "environment": env, "attempted": run.attempted, "failed": run.failed,
              "failures": run.failures[:20], **result["extra"]}
    for name, (value, unit) in result["metrics"].items():
        print(f"{name:<44} {value:>16.6g} {unit}")
    for line in run.failures[:20]:
        print(f"FAILED {line}")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


def untraced(run: Run, w, args) -> dict:
    w.warm_up()
    # the pass count follows --seconds and a fixed pass time, never the
    # host's speed or the program's: two versions of rqc then take the
    # same samples, and op_ms_tail is the same percentile on both
    pass_s, pass_cpu_s, pass_wall_s = [], [], []
    for _ in range(max(2, round(args.seconds / w.pass_s))):
        t0 = time.perf_counter()
        scaled, raw = run.one_pass()
        pass_s.append(scaled)
        pass_cpu_s.append(raw)
        pass_wall_s.append(time.perf_counter() - t0)
    measured = sum(pass_s)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    run.deep_checks()
    setups, setups_cpu, setups_wall = setup_seconds(w)
    p50 = statistics.median(run.samples) * 1e3
    tail_s, tail_p = tail(run.samples)
    first = [run.first[i] for i in sorted(run.first)]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "op_ms_p50": (p50, "ms"),
        "op_ms_tail": (tail_s * 1e3, "ms"),
        "ops_per_s": (len(run.samples) / measured, "1/s"),
        "f_gates": (sum(o.f_gates for o in first), "count"),
        "g_gates": (sum(o.g_gates for o in first), "count"),
        "budget_max": (max(o.budget for o in first), "norm"),
    }
    extra = {
        "pass_s": pass_s,
        "pass_cpu_s": pass_cpu_s,
        "pass_wall_s": pass_wall_s,
        "op_cpu_ms_p50": statistics.median(run.raw_samples) * 1e3,
        "op_cpu_ms_tail": tail(run.raw_samples)[0] * 1e3,
        "reference_ms_p50": statistics.median(run.references) * 1e3,
        "samples": len(run.samples),
        "op_ms_tail_percentile": tail_p,
        "failed_ratio": run.failed / run.attempted,
        "setup_s_samples": setups,
        "setup_cpu_s_samples": setups_cpu,
        "setup_wall_s_samples": setups_wall,
    }
    print(f"{'failed_ratio':<44} {extra['failed_ratio']:>16.6g} ratio ({run.failed}/{run.attempted})")
    print(f"{'op_ms_tail percentile':<44} {'p' + str(tail_p):>16} of {len(run.samples)} samples, {len(pass_s)} passes")
    return {"metrics": metrics, "extra": extra}


def traced(run: Run, w, args) -> dict:
    tracer = Tracer()
    tracer.install()
    tracer.op = "setup"
    w.warm_up()
    tracer.uninstall()
    tracer.op = None
    # each input runs once plain and once traced, alternating which goes
    # first, so warm caches favour neither side of the overhead ratio
    plain = traced_s = 0.0
    for i, item in enumerate(run.items):
        if i % 2:
            traced_s += run.one_op(i, item, tracer)
            plain += run.one_op(i, item)
        else:
            plain += run.one_op(i, item)
            traced_s += run.one_op(i, item, tracer)
    run.deep_checks()
    metrics = layer_metrics(tracer.spans, traced_s)
    metrics["trace.overhead_ratio"] = (traced_s / plain, "ratio")
    # self time of each layer over the traced ops' time; printed and
    # recorded, not gated
    shares = {k: metrics.pop(k)[0] for k in list(metrics) if k.startswith("share.")}
    for name, value in shares.items():
        print(f"{name:<44} {value:>16.4f} of op time")
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_path)
    extra = {"untraced_pass_s": plain, "traced_pass_s": traced_s, "shares": shares,
             "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT))}
    return {"metrics": metrics, "extra": extra}


if __name__ == "__main__":
    sys.exit(main())
