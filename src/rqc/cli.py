"""Command-line front door: rqc transpile|run|verify|synth|bench.

Exit codes: 0 success, 1 parse error, 2 validation or usage error,
3 synthesis target not reachable, 4 verification FAIL.

cmd_transpile writes the lowered circuit to --out and its report to
stdout; without --out the circuit goes to stdout and the report to
stderr, so transpile output always pipes cleanly into run and verify.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .circuit import Circuit
from .gates import is_real
from .library import bench_suite
from .sim import distribution, init_basis, init_basis_real, run_complex, run_real, sample
from .synth import NotReachable, SynthConfig, synthesize
from .textio import ParseError, emit, parse
from .transpile import LoweringLevel, TranspileReport, transpile
from .verify import verify_circuit

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INVALID = 2
EXIT_UNREACHABLE = 3
EXIT_VERIFY = 4

_CONFIG_KEYS = ("level", "phi", "eps", "k_max", "shots", "seed", "init")
# sample takes about 120 ns a shot over 1024 outcomes: two minutes here
MAX_SHOTS = 10**9
_SYNTH_DEFAULTS = SynthConfig()


@dataclass
class CliConfig:
    """Merged flag / config-file / default settings for one invocation."""

    command: str
    input_path: str | None = None
    theta: float | None = None
    level: LoweringLevel = LoweringLevel.G_ONLY
    phi: float = _SYNTH_DEFAULTS.phi
    eps: float = _SYNTH_DEFAULTS.eps
    k_max: int = _SYNTH_DEFAULTS.k_max
    shots: int = 0
    seed: int = 0
    init: int = 0
    out: str | None = None

    @property
    def synth_config(self) -> SynthConfig:
        return SynthConfig(self.phi, self.eps, self.k_max)


# flag -> add_argument keywords, spelled --k-max for k_max
_FLAGS = {
    "level": {"choices": ["real", "f", "g"], "help": "lowering level"},
    "phi": {"type": float, "help": "fixed gate angle"},
    "eps": {"type": float, "help": "per-gate angular tolerance"},
    "k_max": {"type": int, "help": "synthesis search cutoff"},
    "shots": {"type": int, "help": f"sample counts instead of probabilities, at most {MAX_SHOTS}"},
    "seed": {"type": int, "help": "sampling seed"},
    "init": {"type": int, "help": "initial basis index"},
    "out": {"help": "write the primary output to this path"},
    "config": {"help": "key = value file; flags win; every subcommand checks every key"},
}
_SYNTH_FLAGS = ("phi", "eps", "k_max")
_COMMON_FLAGS = ("out", "config")

# subcommand -> (help, the flags it reads); a flag it does not read is a
# usage error rather than silently ignored
_SUBCOMMANDS = {
    "transpile": ("lower a circuit to the requested level", ("level", *_SYNTH_FLAGS)),
    "run": ("simulate a circuit and print its distribution or counts", ("shots", "seed", "init")),
    "verify": ("check a circuit against its lowered forms", ("level", *_SYNTH_FLAGS, "init")),
    "synth": ("approximate one angle by a power of the fixed gate", _SYNTH_FLAGS),
    "bench": ("run the built-in suite and print a table", _SYNTH_FLAGS),
}


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rqc",
        description="Transpile, simulate, and verify real-amplitude quantum circuits.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, (doc, flags) in _SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=doc)
        if name == "synth":
            sp.add_argument("theta", type=float, help="target angle in radians")
        elif name != "bench":
            sp.add_argument("input", help="path to a .rqc file")
        for flag in flags + _COMMON_FLAGS:
            sp.add_argument("--" + flag.replace("_", "-"), dest=flag, **_FLAGS[flag])
    return p


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or not key or not value.strip():
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown config key '{key}'")
        values[key] = value.strip()
    return values


def _build_config(args: argparse.Namespace) -> CliConfig:
    from_file = _read_config_file(args.config) if args.config else {}
    cfg = CliConfig(command=args.command)
    cfg.input_path = getattr(args, "input", None)
    cfg.theta = getattr(args, "theta", None)
    cfg.out = args.out

    def pick(name: str, cast):
        flag = getattr(args, name, None)
        if flag is not None:
            return flag
        if name in from_file:
            return cast(from_file[name])
        return getattr(cfg, name)

    cfg.level = _parse_level(pick("level", str))
    cfg.phi = float(pick("phi", float))
    cfg.eps = float(pick("eps", float))
    cfg.k_max = int(pick("k_max", int))
    cfg.shots = int(pick("shots", int))
    cfg.seed = int(pick("seed", int))
    cfg.init = int(pick("init", int))
    return cfg


def _parse_level(value) -> LoweringLevel:
    if isinstance(value, LoweringLevel):
        return value
    try:
        return LoweringLevel(value)
    except ValueError:
        raise ValueError(f"level must be one of real, f, g; got '{value}'") from None


def _load_circuit(cfg: CliConfig) -> Circuit:
    text = Path(cfg.input_path).read_text()
    # parse refuses every violation Circuit.validate lists
    return parse(text)


def _write_primary(cfg: CliConfig, text: str) -> None:
    if cfg.out:
        Path(cfg.out).write_text(text)
    else:
        sys.stdout.write(text)


def _report_text(report: TranspileReport) -> str:
    lines = [f"input_gates: {report.input_gate_count}"]
    for level in ("real", "f", "g"):
        if level in report.gate_counts:
            lines.append(f"{level}_gates: {report.gate_counts[level]}")
    lines.append(f"ri_ancilla: {report.ri_ancilla}")
    if report.work_ancilla is not None:
        lines.append(f"work_ancilla: {report.work_ancilla}")
    for s in report.syntheses:
        lines.append(
            f"synth[{s.index}]: theta={s.target:.17g} k={s.result.k} "
            f"achieved={s.result.achieved:.17g} error={s.result.error:.17g}"
        )
    if report.budget is not None:
        lines.append(f"budget: {report.budget:.17g}")
        lines.append(f"max_k: {report.max_k if report.max_k is not None else 0}")
    return "\n".join(lines) + "\n"


def cmd_transpile(cfg: CliConfig) -> int:
    c = _load_circuit(cfg)
    lowered, report = transpile(c, cfg.level, cfg.synth_config)
    body = emit(lowered)
    report_text = _report_text(report)
    if cfg.out:
        Path(cfg.out).write_text(body)
        sys.stdout.write(report_text)
    else:
        sys.stdout.write(body)
        sys.stderr.write(report_text)
    return EXIT_OK


def cmd_run(cfg: CliConfig) -> int:
    if cfg.shots > MAX_SHOTS:
        raise ValueError(f"shots must be at most {MAX_SHOTS}")
    c = _load_circuit(cfg)
    if all(is_real(g) for g in c.gates):
        state = init_basis_real(c.num_qubits, cfg.init)
        run_real(c, state, out=state)
    else:
        state = init_basis(c.num_qubits, cfg.init)
        run_complex(c, state, out=state)
    probs = distribution(state)
    if cfg.shots:  # sample rejects a negative count
        counts = sample(probs, cfg.shots, cfg.seed)
        lines = [
            f"{i:0{c.num_qubits}b} {int(v)}" for i, v in enumerate(counts)
        ]
    else:
        lines = [
            f"{i:0{c.num_qubits}b} {p:.15g}" for i, p in enumerate(probs)
        ]
    _write_primary(cfg, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_verify(cfg: CliConfig) -> int:
    c = _load_circuit(cfg)
    report = verify_circuit(c, cfg.init, cfg.synth_config, cfg.level)
    _write_primary(cfg, report.to_text())
    return EXIT_OK if report.passed else EXIT_VERIFY


def cmd_synth(cfg: CliConfig) -> int:
    if cfg.theta is None or not math.isfinite(cfg.theta):
        raise ValueError("theta must be a finite angle in radians")
    result = synthesize(cfg.theta, cfg.synth_config)
    _write_primary(
        cfg,
        f"k: {result.k}\n"
        f"achieved: {result.achieved:.17g}\n"
        f"error: {result.error:.17g}\n",
    )
    return EXIT_OK


def cmd_bench(cfg: CliConfig) -> int:
    header = (
        f"{'name':<12} {'qubits':>6} {'gates':>5} {'real':>5} {'f':>5} "
        f"{'g':>9} {'max_k':>7} {'budget':>10} {'verify':>6} "
        f"{'t_transpile':>11} {'t_verify':>8}"
    )
    rows = [header]
    for name, circuit in bench_suite():
        t0 = time.perf_counter()
        _, report = transpile(circuit, LoweringLevel.G_ONLY, cfg.synth_config)
        t1 = time.perf_counter()
        verdict = verify_circuit(circuit, 0, cfg.synth_config)
        t2 = time.perf_counter()
        rows.append(
            f"{name:<12} {circuit.num_qubits:>6} {len(circuit.gates):>5} "
            f"{report.gate_counts['real']:>5} {report.gate_counts['f']:>5} "
            f"{report.gate_counts['g']:>9} {report.max_k or 0:>7} "
            f"{report.budget:>10.3e} {verdict.status:>6} "
            f"{(t1 - t0) * 1e3:>9.1f}ms {(t2 - t1) * 1e3:>6.1f}ms"
        )
    _write_primary(cfg, "\n".join(rows) + "\n")
    return EXIT_OK


_COMMANDS = {
    "transpile": cmd_transpile,
    "run": cmd_run,
    "verify": cmd_verify,
    "synth": cmd_synth,
    "bench": cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _build_config(args)
        return _COMMANDS[cfg.command](cfg)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except NotReachable as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_UNREACHABLE
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
