"""Command-line front door: rqc transpile|run|verify|synth|bench.

Exit codes: 0 success, 1 parse error, 2 validation or usage error, or
out of memory, 3 synthesis target not reachable, 4 verification FAIL.

_SETTINGS has one row per setting (cast, default, help). The row gives
its --flag (--k-max for k_max), its --config key and the cast of either
value; a flag beats the file, and the file the default. _SUBCOMMANDS has
one row per subcommand (function, help, the settings it takes as flags).
Any other flag is a usage error, while every subcommand checks every key
of the file, and a key may appear there once. A command takes the
argparse namespace, settings resolved.

cmd_transpile writes the lowered circuit to --out and its report to
stdout; without --out the circuit goes to stdout and the report to
stderr, so transpile output always pipes cleanly into run and verify.
"""

from __future__ import annotations

import argparse
import re
import sys
import time
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple

from .circuit import Circuit
from .gates import is_real
from .library import bench_suite
from .sim import check_shots, distribution, run_complex, run_real, sample
from .synth import NotReachable, SynthConfig, synthesize
from .textio import _DECIMAL, ParseError, emit, parse
from .transpile import LoweringLevel, TranspileReport, transpile
from .verify import verify_circuit

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INVALID = 2
EXIT_UNREACHABLE = 3
EXIT_VERIFY = 4

_SYNTH_DEFAULTS = SynthConfig()
_LEVELS = tuple(level.value for level in LoweringLevel)
# every negative literal parse takes as an angle; argparse's own pattern
# takes only -1 and -.5, and reads -1e-3 as an option
_NEGATIVE_LITERAL = re.compile("-" + _DECIMAL, re.ASCII)


def _parse_level(value: str) -> LoweringLevel:
    try:
        return LoweringLevel(value)
    except ValueError:
        raise ValueError(f"level must be one of {', '.join(_LEVELS)}; got '{value}'") from None


class _Setting(NamedTuple):
    cast: Callable
    default: object
    help: str
    # when set, argparse checks the flag against choices instead of
    # casting it, so a bad --level stays an "invalid choice" usage error
    choices: tuple[str, ...] | None = None


_SETTINGS = {
    "level": _Setting(_parse_level, "g", "lowering level", _LEVELS),
    "phi": _Setting(float, _SYNTH_DEFAULTS.phi, "fixed gate angle"),
    "eps": _Setting(float, _SYNTH_DEFAULTS.eps, "per-gate angular tolerance"),
    "k_max": _Setting(int, _SYNTH_DEFAULTS.k_max, "synthesis search cutoff"),
    "shots": _Setting(int, 0, "sample counts instead of probabilities, below 2**63"),
    "seed": _Setting(int, 0, "sampling seed"),
    "init": _Setting(int, 0, "initial basis index"),
}


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rqc",
        description="Transpile, simulate, and verify real-amplitude quantum circuits.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, command in _SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=command.help)
        # a private argparse attribute, read as a pattern with .match by
        # Python 3.10 to 3.12; the subparser classifies its own arguments
        sp._negative_number_matcher = _NEGATIVE_LITERAL
        if name == "synth":
            sp.add_argument("theta", type=float, help="target angle in radians")
        elif name != "bench":
            sp.add_argument("input", help="path to a .rqc file")
        for flag in command.settings:
            s = _SETTINGS[flag]
            kind = {"choices": s.choices} if s.choices else {"type": s.cast}
            sp.add_argument("--" + flag.replace("_", "-"), dest=flag, help=s.help, **kind)
        sp.add_argument("--out", help="write the primary output to this path")
        sp.add_argument(
            "--config", help="key = value file; flags win; every subcommand checks every key"
        )
    return p


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8-sig").split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or not key or not value.strip():
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        if key not in _SETTINGS:
            raise ValueError(f"{path}:{lineno}: unknown config key '{key}'")
        if key in values:
            raise ValueError(f"{path}:{lineno}: duplicate config key '{key}'")
        values[key] = value.strip()
    return values


def _resolve_settings(args: argparse.Namespace) -> None:
    # flag, else config file, else default, then the setting's cast: a
    # no-op on a flag argparse already cast, and --level's string becomes
    # its member. A subcommand without the flag has no attribute for it
    from_file = _read_config_file(args.config) if args.config else {}
    for name, s in _SETTINGS.items():
        value = getattr(args, name, None)
        if value is None:
            value = from_file.get(name, s.default)
        setattr(args, name, s.cast(value))
    args.synth = SynthConfig(args.phi, args.eps, args.k_max)


def _load_circuit(args: argparse.Namespace) -> Circuit:
    # parse refuses every violation Circuit.validate lists
    return parse(Path(args.input).read_text(encoding="utf-8-sig"))


def _write_primary(args: argparse.Namespace, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
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


def cmd_transpile(args: argparse.Namespace) -> int:
    lowered, report = transpile(_load_circuit(args), args.level, args.synth)
    _write_primary(args, emit(lowered))
    (sys.stdout if args.out else sys.stderr).write(_report_text(report))
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    if args.shots:  # before the circuit is read and run
        check_shots(args.shots, args.seed)
    c = _load_circuit(args)
    run = run_real if all(is_real(g) for g in c.gates) else run_complex
    state = run(c, args.init)
    probs = distribution(state)
    if args.shots:
        counts = sample(probs, args.shots, args.seed)
        lines = [f"{i:0{c.num_qubits}b} {int(v)}" for i, v in enumerate(counts)]
    else:
        lines = [f"{i:0{c.num_qubits}b} {p:.15g}" for i, p in enumerate(probs)]
    _write_primary(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    report = verify_circuit(_load_circuit(args), args.init, args.synth, args.level)
    _write_primary(args, report.to_text())
    return EXIT_OK if report.passed else EXIT_VERIFY


def cmd_synth(args: argparse.Namespace) -> int:
    result = synthesize(args.theta, args.synth)
    _write_primary(
        args,
        f"k: {result.k}\n"
        f"achieved: {result.achieved:.17g}\n"
        f"error: {result.error:.17g}\n",
    )
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    header = (
        f"{'name':<12} {'qubits':>6} {'gates':>5} {'real':>5} {'f':>5} "
        f"{'g':>9} {'max_k':>7} {'budget':>10} {'verify':>6} "
        f"{'t_transpile':>11} {'t_verify':>8}"
    )
    rows = [header]
    passed = True
    for name, circuit in bench_suite():
        t0 = time.perf_counter()
        try:
            _, report = transpile(circuit, LoweringLevel.G_ONLY, args.synth)
        except NotReachable as e:
            return _unreachable(e, f"{name}: ")
        t1 = time.perf_counter()
        verdict = verify_circuit(circuit, 0, args.synth)
        t2 = time.perf_counter()
        passed = passed and verdict.passed
        rows.append(
            f"{name:<12} {circuit.num_qubits:>6} {len(circuit.gates):>5} "
            f"{report.gate_counts['real']:>5} {report.gate_counts['f']:>5} "
            f"{report.gate_counts['g']:>9} {report.max_k or 0:>7} "
            f"{report.budget:>10.3e} {verdict.status:>6} "
            f"{(t1 - t0) * 1e3:>9.1f}ms {(t2 - t1) * 1e3:>6.1f}ms"
        )
    _write_primary(args, "\n".join(rows) + "\n")
    return EXIT_OK if passed else EXIT_VERIFY


class _Subcommand(NamedTuple):
    func: Callable[[argparse.Namespace], int]
    help: str
    # the settings it takes as flags
    settings: tuple[str, ...]


_SYNTH_FLAGS = ("phi", "eps", "k_max")
_SUBCOMMANDS = {
    "transpile": _Subcommand(
        cmd_transpile, "lower a circuit to the requested level", ("level", *_SYNTH_FLAGS)
    ),
    "run": _Subcommand(
        cmd_run,
        "simulate a circuit and print its distribution or counts",
        ("shots", "seed", "init"),
    ),
    "verify": _Subcommand(
        cmd_verify, "check a circuit against its lowered forms", ("level", *_SYNTH_FLAGS, "init")
    ),
    "synth": _Subcommand(
        cmd_synth, "approximate one angle by a power of the fixed gate", _SYNTH_FLAGS
    ),
    "bench": _Subcommand(cmd_bench, "run the built-in suite and print a table", _SYNTH_FLAGS),
}


def _unreachable(e: NotReachable, circuit: str = "") -> int:
    # transpile and verify lower to the same level-f gate order
    where = "" if e.gate_index is None else f"gate {e.gate_index} of the level-f circuit: "
    print(f"error: {circuit}{where}{e}", file=sys.stderr)
    return EXIT_UNREACHABLE


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        _resolve_settings(args)
        return _SUBCOMMANDS[args.command].func(args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except NotReachable as e:
        return _unreachable(e)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except MemoryError:
        print("error: out of memory; a looser --eps or a lower --level needs less", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
