"""Spans around rqc's public functions, installed from outside the package.

rqc binds names with `from .x import y`, so a function lives in several
module namespaces at once (rqc.verify.run_real is rqc.sim.run_real). The
tracer swaps the wrapper in at every namespace that holds the original
object and puts the originals back on uninstall. Spans are kept in memory
as (name, start, end, parent, op, counts) tuples and written out at the
end of a run.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# CPU time of this process, for ops, set-up and spans alike. rqc is
# single-threaded and an op does no I/O, so on an idle machine this equals
# wall time; on a shared host it leaves out time the vCPU is descheduled
CLOCK = time.process_time

# layer (rqc module) -> public functions timed as that layer; gates.py is
# left out because gate_matrix runs once per simulated gate and a wrapper
# there would cost more than the kernel it measures
LAYERS = {
    "textio": ("parse", "emit"),
    "circuit": ("require_valid",),
    "transpile": (
        "transpile",
        "normalize_pass",
        "encode_pass",
        "lower_ry_pass",
        "synthesize_all",
        "materialize_fixed",
        "achieved_circuit",
    ),
    "synth": ("synthesize", "orbit_angle", "budget"),
    "sim": ("run_real", "run_complex", "distribution", "init_basis"),
    "encoding": (
        "encode",
        "decode",
        "add_work_ancilla",
        "strip_work_ancilla",
        "marginal_distribution",
    ),
    "verify": ("verify_circuit", "prepare_stages", "circuit_digest", "tv_distance"),
}


def _gates_out(args, result):
    circuit = result[0] if isinstance(result, tuple) else result
    return {"gates_out": len(circuit.gates)}


def _gate_amps(args, result):
    c = args[0]
    return {"gate_amps": len(c.gates) << c.num_qubits, "qubits": c.num_qubits}


# work done per call, read from arguments and results at the boundary
COUNTERS = {
    "textio.parse": lambda args, result: {"lines": args[0].count("\n")},
    "textio.emit": lambda args, result: {"bytes": len(result)},
    "transpile.normalize_pass": _gates_out,
    "transpile.encode_pass": _gates_out,
    "transpile.lower_ry_pass": _gates_out,
    "transpile.materialize_fixed": _gates_out,
    "transpile.achieved_circuit": _gates_out,
    "synth.synthesize": lambda args, result: {"k": result.k},
    "sim.run_real": _gate_amps,
    "sim.run_complex": _gate_amps,
}


class Tracer:
    """Records a span for every wrapped call made while `op` is set."""

    def __init__(self):
        self.spans: list = []
        self.op: int | str | None = None
        self._stack: list[int] = []
        # (namespace, attribute, original, wrapper) for every import site
        self._sites: list[tuple[object, str, object, object]] = []
        modules = [m for n, m in sys.modules.items() if n == "rqc" or n.startswith("rqc.")]
        for layer, names in LAYERS.items():
            # the package attribute rqc.transpile is the function, so
            # layers are looked up as modules by their full name
            home = sys.modules[f"rqc.{layer}"]
            for fn_name in names:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for m in modules:
                    for attr, value in vars(m).items():
                        if value is original:
                            self._sites.append((m, attr, original, wrapper))

    def install(self) -> None:
        for m, attr, _, wrapper in self._sites:
            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, original, _ in self._sites:
            setattr(m, attr, original)

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        spans = self.spans
        stack = self._stack
        clock = CLOCK

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, op, {"error": type(e).__name__})
                raise
            end = clock()
            stack.pop()
            spans[idx] = (name, start, end, parent, op, counter(args, result) if counter else None)
            return result

        return wrapper

    def write(self, path) -> None:
        with open(path, "w") as f:
            for name, start, end, parent, op, counts in self.spans:
                row = {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                if counts:
                    row.update(counts)
                f.write(json.dumps(row) + "\n")


# register sizes (qubits) broken out for the kernel microbench; verify-wide
# runs the reference on 14-18 data qubits and the lowered stages one and
# two qubits wider
REGISTER_BUCKETS = {
    "run_real": (15, 16, 17, 18, 19, 20),
    "run_complex": (14, 15, 16, 17, 18),
}


def self_times(spans) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    out = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(spans, op_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over the spans of timed ops (int op ids); shares
    are each layer's self time over op_s, the ops' total time."""
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    counts: dict[str, dict[str, float]] = {}
    by_reg: dict[tuple[str, int], list[float]] = {}
    k_max = 0
    setup_orbit_calls = 0
    for (name, start, end, _, op, c), s in zip(spans, selfs):
        if not isinstance(op, int):
            if name == "synth.orbit_angle":
                setup_orbit_calls += 1
            continue
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (end - start)
        own[name] = own.get(name, 0.0) + s
        if c:
            acc = counts.setdefault(name, {})
            for key, v in c.items():
                if key in ("qubits", "error"):
                    continue
                acc[key] = acc.get(key, 0) + v
            if name == "synth.synthesize" and "k" in c:
                k_max = max(k_max, c["k"])
            if "qubits" in c:
                reg = by_reg.setdefault((name, c["qubits"]), [0.0, 0])
                reg[0] += end - start
                reg[1] += c["gate_amps"]

    def s(name):
        return total.get(name, 0.0)

    def n(name, key):
        return counts.get(name, {}).get(key, 0)

    def ns_per(t, amps):
        return t * 1e9 / amps if amps else 0.0

    m: dict[str, tuple[float, str]] = {
        "textio.parse.s": (s("textio.parse"), "s"),
        "textio.parse.lines": (n("textio.parse", "lines"), "count"),
        "textio.emit.s": (s("textio.emit"), "s"),
        "textio.emit.bytes": (n("textio.emit", "bytes"), "bytes"),
        "transpile.materialize_fixed.s": (s("transpile.materialize_fixed"), "s"),
        "transpile.materialize_fixed.gates_out": (n("transpile.materialize_fixed", "gates_out"), "count"),
        "transpile.normalize_pass.s": (s("transpile.normalize_pass"), "s"),
        "transpile.normalize_pass.gates_out": (n("transpile.normalize_pass", "gates_out"), "count"),
        "transpile.encode_pass.s": (s("transpile.encode_pass"), "s"),
        "transpile.lower_ry_pass.s": (s("transpile.lower_ry_pass"), "s"),
        "transpile.lower_ry_pass.gates_out": (n("transpile.lower_ry_pass", "gates_out"), "count"),
        "transpile.achieved_circuit.s": (s("transpile.achieved_circuit"), "s"),
        "transpile.synthesize_all.s": (s("transpile.synthesize_all"), "s"),
        "circuit.require_valid.s": (s("circuit.require_valid"), "s"),
        "synth.synthesize.calls": (calls.get("synth.synthesize", 0), "count"),
        "synth.synthesize.s": (s("synth.synthesize"), "s"),
        "synth.synthesize.k_sum": (n("synth.synthesize", "k"), "count"),
        "synth.synthesize.k_max": (k_max, "count"),
        "synth.orbit_angle.calls": (calls.get("synth.orbit_angle", 0), "count"),
        "synth.orbit_angle.s": (s("synth.orbit_angle"), "s"),
        "synth.orbit_angle.setup_calls": (setup_orbit_calls, "count"),
    }
    for engine in ("run_real", "run_complex"):
        name = f"sim.{engine}"
        amps = n(name, "gate_amps")
        m[f"{name}.s"] = (s(name), "s")
        m[f"{name}.gate_amps"] = (amps, "count")
        m[f"{name}.ns_per_gate_amp"] = (ns_per(s(name), amps), "ns")
        for reg in REGISTER_BUCKETS[engine]:
            t, a = by_reg.get((name, reg), (0.0, 0))
            m[f"{name}.ns_per_gate_amp.r{reg}"] = (ns_per(t, a), "ns")
    # computed from array sizes, not measured: one float64 read and one
    # write of every amplitude per gate
    m["sim.run_real.bytes_computed"] = (16 * n("sim.run_real", "gate_amps"), "bytes")
    m["encoding.s"] = (sum(s(f"encoding.{f}") for f in LAYERS["encoding"]), "s")
    m["verify.verify_circuit.s"] = (s("verify.verify_circuit"), "s")
    m["verify.verify_circuit.self_s"] = (own.get("verify.verify_circuit", 0.0), "s")
    m["verify.circuit_digest.s"] = (s("verify.circuit_digest"), "s")
    for layer, names in LAYERS.items():
        busy = sum(own.get(f"{layer}.{f}", 0.0) for f in names)
        m[f"share.{layer}"] = (busy / op_s if op_s else 0.0, "ratio")
    return m
