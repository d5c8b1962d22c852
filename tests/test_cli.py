import dataclasses
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import rqc.cli as cli_mod
import rqc.verify as verify_mod
from rqc import DEFAULT_PHI, SynthConfig, synthesize
from rqc.cli import EXIT_INVALID, EXIT_OK, EXIT_PARSE, EXIT_UNREACHABLE, EXIT_VERIFY, main
from rqc.library import bench_suite

from test_verify import corrupted_stages

PI = math.pi


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_transpile_to_stdout_report_to_stderr(tmp_path, capsys):
    path = write(tmp_path, "c.rqc", "qubits 2\nrz 0 1.5707963267948966\n")
    assert main(["transpile", path, "--level", "real"]) == EXIT_OK
    out, err = capsys.readouterr()
    assert out == "qubits 3\nf 0 2 1.5707963267948966\n"
    assert "input_gates: 1\n" in err
    assert "real_gates: 1\n" in err
    assert "ri_ancilla: 2\n" in err


def test_transpile_to_file_report_to_stdout(tmp_path, capsys):
    path = write(tmp_path, "c.rqc", "qubits 2\nh 0\ncx 0 1\n")
    out_path = tmp_path / "lowered.rqc"
    assert main(["transpile", path, "--level", "f", "--out", str(out_path)]) == EXIT_OK
    out, err = capsys.readouterr()
    assert err == ""
    assert "f_gates:" in out
    assert "work_ancilla: 3\n" in out
    text = out_path.read_text()
    assert text.startswith("qubits 4\n")
    assert all(line.startswith("f ") for line in text.splitlines()[1:])


def test_transpile_report_lists_syntheses(tmp_path, capsys):
    path = write(tmp_path, "c.rqc", f"qubits 1\nry 0 {DEFAULT_PHI:.17g}\n")
    assert main(["transpile", path, "--level", "g"]) == EXIT_OK
    out, err = capsys.readouterr()
    assert f"synth[0]: theta={DEFAULT_PHI:.17g} k=1 achieved={DEFAULT_PHI:.17g} error=0" in err
    assert "budget: 0\n" in err
    assert "max_k: 1\n" in err


def test_transpiled_output_pipes_back_in(tmp_path, capsys):
    path = write(tmp_path, "c.rqc", "qubits 2\nh 0\ncx 0 1\nt 1\n")
    assert main(["transpile", path, "--level", "f"]) == EXIT_OK
    lowered = capsys.readouterr().out
    lowered_path = write(tmp_path, "lowered.rqc", lowered)
    assert main(["run", lowered_path]) == EXIT_OK
    out, _ = capsys.readouterr()
    assert len(out.splitlines()) == 16
    assert main(["verify", lowered_path, "--level", "real"]) == EXIT_OK


def test_run_probabilities(tmp_path, capsys):
    path = write(tmp_path, "c.rqc", "qubits 1\nh 0\n")
    assert main(["run", path]) == EXIT_OK
    assert capsys.readouterr().out == "0 0.5\n1 0.5\n"


def test_run_bitstrings_are_most_significant_first(tmp_path, capsys):
    path = write(tmp_path, "c.rqc", "qubits 2\nx 0\n")
    assert main(["run", path]) == EXIT_OK
    assert capsys.readouterr().out == "00 0\n01 1\n10 0\n11 0\n"


def test_run_respects_init(tmp_path, capsys):
    path = write(tmp_path, "c.rqc", "qubits 2\ncx 0 1\n")
    assert main(["run", path, "--init", "1"]) == EXIT_OK
    assert capsys.readouterr().out == "00 0\n01 0\n10 0\n11 1\n"


def test_run_uniform_distribution(tmp_path, capsys):
    path = write(tmp_path, "c.rqc", "qubits 2\nh 0\nh 1\n")
    assert main(["run", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert out == "00 0.25\n01 0.25\n10 0.25\n11 0.25\n"


def test_run_shots_deterministic(tmp_path, capsys):
    path = write(tmp_path, "c.rqc", "qubits 1\nh 0\n")
    assert main(["run", path, "--shots", "100", "--seed", "7"]) == EXIT_OK
    first = capsys.readouterr().out
    assert main(["run", path, "--shots", "100", "--seed", "7"]) == EXIT_OK
    assert capsys.readouterr().out == first
    counts = [int(line.split()[1]) for line in first.splitlines()]
    assert sum(counts) == 100
    assert main(["run", path, "--shots", "100", "--seed", "8"]) == EXIT_OK
    assert capsys.readouterr().out != first


def test_run_shots_on_an_unsampleable_distribution_exit_code(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "c.rqc", "qubits 1\nh 0\n")
    monkeypatch.setattr(cli_mod, "distribution", lambda state: np.zeros(2))
    assert main(["run", path, "--shots", "10"]) == EXIT_INVALID
    assert "probabilities" in capsys.readouterr().err


def test_run_negative_shots_exit_code(tmp_path, capsys):
    path = write(tmp_path, "c.rqc", "qubits 1\nh 0\n")
    assert main(["run", path, "--shots", "-3"]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "shots must be non-negative" in captured.err
    assert main(["run", path, "--shots", "5", "--seed", "-1"]) == EXIT_INVALID
    assert capsys.readouterr() == ("", "error: seed must be non-negative\n")
    assert main(["run", path, "--shots", "0"]) == EXIT_OK
    assert capsys.readouterr().out == "0 0.5\n1 0.5\n"


def test_run_shots_above_the_cap_exit_code(tmp_path, capsys):
    # counts are int64: 2**63 shots and more exit 2 before numpy sees them
    path = write(tmp_path, "c.rqc", "qubits 1\nh 0\n")
    config = write(tmp_path, "rqc.cfg", "shots = 9223372036854775808\n")
    for flags in (["--shots", "9223372036854775808"], ["--config", config]):
        assert main(["run", path, *flags]) == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: shots must be below 2**63, numpy's int64 count\n"
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    assert "below 2**63" in " ".join(capsys.readouterr().out.split())


def test_run_a_quadrillion_shots(tmp_path, capsys):
    path = write(tmp_path, "c.rqc", "qubits 2\nh 0\ncx 0 1\n")
    t0 = time.process_time()
    assert main(["run", path, "--shots", "1000000000000000", "--seed", "7"]) == EXIT_OK
    assert time.process_time() - t0 < 1.0
    counts = dict(line.split() for line in capsys.readouterr().out.splitlines())
    assert counts["01"] == counts["10"] == "0"
    assert sum(map(int, counts.values())) == 10**15


def test_out_of_memory_exit_code(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "c.rqc", "qubits 1\nh 0\n")

    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli_mod, "transpile", exhausted)
    assert main(["transpile", path, "--eps", "1e-7", "--k-max", "1000000000000"]) == EXIT_INVALID
    assert capsys.readouterr() == (
        "",
        "error: out of memory; a looser --eps or a lower --level needs less\n",
    )


def test_run_complex_circuit(tmp_path, capsys):
    # s changes the phase but not the distribution
    path = write(tmp_path, "c.rqc", "qubits 1\nh 0\ns 0\n")
    assert main(["run", path]) == EXIT_OK
    assert capsys.readouterr().out == "0 0.5\n1 0.5\n"


def test_synth_exact_hit(capsys):
    assert main(["synth", f"{DEFAULT_PHI:.17g}"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out == f"k: 1\nachieved: {DEFAULT_PHI:.17g}\nerror: 0\n"


def test_synth_matches_the_library(capsys):
    assert main(["synth", "1.5707963267948966", "--eps", "1e-4"]) == EXIT_OK
    out = capsys.readouterr().out
    want = synthesize(0.5 * PI, SynthConfig(eps=1e-4))
    assert out.splitlines()[0] == f"k: {want.k}"
    assert out.splitlines()[1] == f"achieved: {want.achieved:.17g}"
    # without flags the CLI takes the library's defaults
    assert main(["synth", "1.5707963267948966"]) == EXIT_OK
    out = capsys.readouterr().out
    want = synthesize(0.5 * PI)
    assert out == f"k: {want.k}\nachieved: {want.achieved:.17g}\nerror: {want.error:.17g}\n"


def test_synth_unreachable_exit_code(capsys):
    assert main(["synth", "1.0", "--eps", "1e-15", "--k-max", "100"]) == EXIT_UNREACHABLE
    err = capsys.readouterr().err
    assert err.startswith("error: no power reaches theta=1.0")
    assert "raise k_max or eps" in err


def test_transpile_and_verify_name_the_gate_out_of_reach(tmp_path, capsys):
    # at phi = pi/4 the constant angles of the lowering are powers, and
    # 1.0 is not: the level-f text gives the index of its one gate, on
    # the declared register for transpile and the packed one for verify
    path = write(tmp_path, "c.rqc", "qubits 3\ncx 0 2\nrz 2 1.0\n")
    flags = ["--phi", repr(PI / 4), "--eps", "1e-9", "--k-max", "10"]
    assert main(["transpile", path, "--level", "f", *flags]) == EXIT_OK
    gates = capsys.readouterr().out.splitlines()[1:]
    index = [line.split()[-1] for line in gates].index("1")
    for command in ("transpile", "verify"):
        assert main([command, path, *flags]) == EXIT_UNREACHABLE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(
            f"error: gate {index} of the level-f circuit: no power reaches theta=1.0 "
        ), command


def test_synth_deep_k_max(capsys):
    assert main(["synth", "1.0", "--eps", "1e-12", "--k-max", "1000000000000000"]) == EXIT_OK
    out = capsys.readouterr().out
    want = synthesize(1.0, SynthConfig(eps=1e-12, k_max=10**15))
    assert out.splitlines()[0] == f"k: {want.k}"


@pytest.mark.parametrize("k_max", [2061998, 10**12])
def test_synth_on_a_degenerate_orbit_ends_quickly(capsys, k_max):
    # every power of phi = 5e-324 lies within 1e-317 of 0, and 0 is one ulp
    # of theta more than eps from theta: no k is in reach, and the search
    # must not walk the k_max powers lying just outside the window
    argv = ["synth", "3.6787017845701716e-10", "--phi", "5e-324",
            "--eps", "3.678701784570171e-10", "--k-max", str(k_max)]
    t0 = time.process_time()
    assert main(argv) == EXIT_UNREACHABLE
    assert time.process_time() - t0 < 1.0
    assert f"(closest: k={k_max}, " in capsys.readouterr().err


def test_synth_rejects_non_finite(capsys):
    # the synthesizer's one check, not a second one in the CLI
    for theta in ("nan", "inf", "-inf"):
        assert main(["synth", "--", theta]) == EXIT_INVALID
        assert capsys.readouterr().err == "error: theta must be finite\n"


def test_non_finite_eps_is_rejected(tmp_path, capsys):
    path = write(tmp_path, "c.rqc", "qubits 1\nry 0 0.5\n")
    for argv in (["synth", "1.0"], ["verify", path], ["transpile", path]):
        for eps in ("inf", "-inf", "nan"):
            assert main([*argv, f"--eps={eps}"]) == EXIT_INVALID
            assert capsys.readouterr().err == "error: eps must be finite\n"


def test_synth_large_finite_eps_takes_one_gate(capsys):
    assert main(["synth", "1.0", "--eps", "1e300"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[0] == "k: 1"


def test_verify_pass_and_report(tmp_path, capsys):
    path = write(tmp_path, "c.rqc", "qubits 2\nh 0\ncx 0 1\n")
    assert main(["verify", path, "--init", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "status: PASS\n" in out
    assert "init_index: 2\n" in out


def test_verify_fail_exit_code(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "c.rqc", "qubits 2\nh 0\ncx 0 1\n")
    monkeypatch.setattr(verify_mod, "prepare_stages", corrupted_stages("f", 1e-3))
    assert main(["verify", path]) == EXIT_VERIFY
    out = capsys.readouterr().out
    assert "status: FAIL\n" in out
    assert "reason: stage 'f' distance exceeds 1e-09\n" in out


@pytest.mark.parametrize(
    "angle, flags",
    [("1e6", ["--eps", "1e-6", "--k-max", "10000000"]), ("1e10", []), ("1e14", []), ("1e300", [])],
)
def test_verify_passes_on_large_angles(tmp_path, capsys, angle, flags):
    # the simulator reduces ry's angle by the true 2pi, so the synthesized
    # power must approximate that reduction, not one by a float64 2pi
    path = write(tmp_path, "c.rqc", f"qubits 1\nry 0 {angle}\n")
    assert main(["verify", path, *flags]) == EXIT_OK
    assert "status: PASS\n" in capsys.readouterr().out


def test_verify_out_file(tmp_path, capsys):
    path = write(tmp_path, "c.rqc", "qubits 1\nz 0\n")
    report_path = tmp_path / "report.txt"
    assert main(["verify", path, "--out", str(report_path)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert "status: PASS" in report_path.read_text()


def test_parse_error_exit_code_and_location(tmp_path, capsys):
    path = write(tmp_path, "bad.rqc", "qubits 2\nh 0\ncx 1 1\n")
    assert main(["run", path]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err == "error: line 3, column 6: duplicate operands\n"
    # parse refuses every kind of violation Circuit.validate lists, so no
    # command validates the circuit again after loading it
    cases = [
        ("qubits 0\n", "line 1, column 8: qubit count must be a positive integer, got '0'"),
        ("qubits 2\nh 0 1\n", "line 2, column 1: 'h' takes 1 operand(s) and 0 angle(s), got 2 token(s)"),
        ("qubits 2\nh 2\n", "line 2, column 3: operand 2 out of range for 2 qubit(s)"),
        ("qubits 2\ncx 0 -1\n", "line 2, column 6: operand -1 out of range for 2 qubit(s)"),
        ("qubits 2\nh 0 0.5\n", "line 2, column 1: 'h' takes 1 operand(s) and 0 angle(s), got 2 token(s)"),
        ("qubits 2\nrz 0\n", "line 2, column 1: 'rz' takes 1 operand(s) and 1 angle(s), got 1 token(s)"),
        ("qubits 2\nrz 0 nan\n", "line 2, column 6: angle must be a decimal literal, got 'nan'"),
        ("qubits 2\nrz 0 1e999\n", "line 2, column 6: angle overflows to infinity"),
        # literals are ASCII: Arabic-Indic and full-width digits are refused
        ("qubits \u0663\n", "line 1, column 8: qubit count must be a positive integer, got '\u0663'"),
        ("qubits \uff13\n", "line 1, column 8: qubit count must be a positive integer, got '\uff13'"),
        ("qubits 2\nh \u0660\n", "line 2, column 3: operand must be an integer, got '\u0660'"),
        ("qubits 2\nh \uff10\n", "line 2, column 3: operand must be an integer, got '\uff10'"),
        ("qubits 2\nrz 0 \u0661.\u0665\n", "line 2, column 6: angle must be a decimal literal, got '\u0661.\u0665'"),
        ("qubits 2\nrz 0 \uff11.\uff15\n", "line 2, column 6: angle must be a decimal literal, got '\uff11.\uff15'"),
    ]
    for text, message in cases:
        path = write(tmp_path, "bad.rqc", text)
        for command in ("transpile", "run", "verify"):
            assert main([command, path]) == EXIT_PARSE, (text, command)
            out, err = capsys.readouterr()
            assert (out, err) == ("", f"error: {message}\n"), (text, command)


def test_missing_file_exit_code(capsys):
    assert main(["run", "/nonexistent/x.rqc"]) == EXIT_INVALID
    assert "error:" in capsys.readouterr().err


def test_bad_settings_are_refused_before_the_circuit_is_read(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "c.rqc", "qubits 1\nh 0\n")
    config = write(tmp_path, "rqc.cfg", "eps = -1\n")

    def refuse(text):
        raise AssertionError("the circuit was read before a bad setting was refused")

    monkeypatch.setattr(cli_mod, "parse", refuse)
    for argv, message in (
        (["run", path, "--shots", "-3"], "shots must be non-negative"),
        (
            ["run", path, "--shots", "9223372036854775808"],
            "shots must be below 2**63, numpy's int64 count",
        ),
        (["run", path, "--shots", "5", "--seed", "-1"], "seed must be non-negative"),
        # every subcommand checks every key of the file
        (["run", path, "--config", config], "eps must be positive"),
        (["transpile", path, "--eps", "-1"], "eps must be positive"),
        (["transpile", "/nonexistent/x.rqc", "--eps", "-1"], "eps must be positive"),
        (["verify", path, "--k-max", "0"], "k_max must be at least 1"),
        (["verify", path, "--phi", "inf"], "phi must be finite"),
    ):
        assert main(argv) == EXIT_INVALID, argv
        assert capsys.readouterr() == ("", f"error: {message}\n"), argv


def test_init_out_of_range_exit_code(tmp_path, capsys):
    path = write(tmp_path, "c.rqc", "qubits 1\nh 0\n")
    for command in ("run", "verify"):
        assert main([command, path, "--init", "5"]) == EXIT_INVALID
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: basis index 5 out of range for 1 qubit(s)\n"


# subcommand -> the settings it takes as flags; each setting's flag is
# spelled with dashes, and every setting is also a config-file key
READS = {
    "transpile": {"level", "phi", "eps", "k_max"},
    "run": {"shots", "seed", "init"},
    "verify": {"level", "phi", "eps", "k_max", "init"},
    "synth": {"phi", "eps", "k_max"},
    "bench": {"phi", "eps", "k_max"},
}
SETTINGS = ("level", "phi", "eps", "k_max", "shots", "seed", "init")


def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(tmp_path, capsys):
    path = write(tmp_path, "c.rqc", "qubits 1\nh 0\n")
    for argv in (
        ["run", path, "--level", "g"],
        ["synth", "0.5", "--init", "1"],
        ["bench", "--shots", "3"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    # the full matrix: every setting under every subcommand
    base = {"transpile": [path], "run": [path], "verify": [path], "synth": ["0.5"], "bench": []}
    value = {"level": "f", "phi": "0.3", "eps": "1e-2", "k_max": "5000",
             "shots": "4", "seed": "3", "init": "1"}
    for command, reads in READS.items():
        for name in SETTINGS:
            argv = [command, *base[command], "--" + name.replace("_", "-"), value[name]]
            if name in reads:
                assert main(argv) == EXIT_OK, argv
                capsys.readouterr()
                continue
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
            assert "unrecognized arguments" in capsys.readouterr().err, argv


def test_registers_beyond_the_simulator_cap_exit_code(tmp_path, capsys):
    # refused before any amplitude array exists: tracemalloc sees numpy's
    # allocations, and 2^27 amplitudes alone would be 2 GiB. verify's cap
    # applies to its 27 active qubits with the tag and the work ancilla
    every_qubit = "".join(f"h {q}\n" for q in range(27))
    cases = (
        (["run"], "qubits 29\nh 0\n", 29),
        (["run"], "qubits 64\nh 63\n", 64),
        (["verify", "--level", "f"], "qubits 27\n" + every_qubit, 29),
        # refused before the lowering, whose synthesis cannot reach 0.5
        (
            ["verify", "--k-max", "10", "--eps", "1e-12"],
            "qubits 27\n" + every_qubit + "rz 0 0.5\n",
            29,
        ),
    )
    tracemalloc.start()
    try:
        for (command, *flags), text, width in cases:
            path = write(tmp_path, "wide.rqc", text)
            assert main([command, path, *flags]) == EXIT_INVALID
            err = capsys.readouterr().err
            assert err == f"error: {width} qubit(s) exceed the simulator limit of 28\n"
        assert tracemalloc.get_traced_memory()[1] < 16 << 20
    finally:
        tracemalloc.stop()


def test_verify_width_cap_applies_to_the_active_qubits(tmp_path, capsys):
    # 40 declared qubits, 2 of them active
    tracemalloc.start()
    try:
        path = write(tmp_path, "wide.rqc", "qubits 40\nh 0\ncx 0 1\nrz 1 0.3\n")
        assert main(["verify", path, "--init", str(1 << 39 | 2)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "num_qubits: 40\n" in out and out.endswith("status: PASS\n")
        # the input index is checked against all 40, and nothing is allocated
        for index in (1 << 40, -1):
            assert main(["verify", path, "--init", str(index)]) == EXIT_INVALID
            out, err = capsys.readouterr()
            assert out == ""
            assert err == f"error: basis index {index} out of range for 40 qubit(s)\n"
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()
    # invalid and too wide: the parser refuses it first, with its location
    every_qubit = "".join(f"h {q}\n" for q in range(40))
    path = write(tmp_path, "bad.rqc", "qubits 40\n" + every_qubit + "rz 0\n")
    assert main(["verify", path]) == EXIT_PARSE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: line 42") and "exceed" not in err


def test_config_file_supplies_defaults(tmp_path, capsys):
    circuit = write(tmp_path, "c.rqc", "qubits 1\nh 0\n")
    config = write(
        tmp_path, "rqc.cfg",
        "# settings\nshots = 50\nseed = 3\nlevel = real\n",
    )
    assert main(["run", circuit, "--config", config]) == EXIT_OK
    counts = [int(line.split()[1]) for line in capsys.readouterr().out.splitlines()]
    assert sum(counts) == 50


def test_flags_beat_the_config_file(tmp_path, capsys):
    circuit = write(tmp_path, "c.rqc", "qubits 1\nh 0\n")
    config = write(tmp_path, "rqc.cfg", "shots = 50\n")
    assert main(["run", circuit, "--config", config, "--shots", "0"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out == "0 0.5\n1 0.5\n"

    def result(argv):
        code = main(argv)
        return (code, *capsys.readouterr())

    # key -> (a command that reads it, its default, a file value, a flag
    # value); the last three give three different results
    pair = write(tmp_path, "pair.rqc", "qubits 2\nh 0\ncx 0 1\nrz 1 0.7\n")
    cx = write(tmp_path, "cx.rqc", "qubits 2\ncx 0 1\n")
    lib = SynthConfig()
    cases = {
        "level": (["transpile", pair], "g", "real", "f"),
        "phi": (["synth", "1.0"], f"{lib.phi:.17g}", "0.3", "0.31"),
        "eps": (["synth", "1.0"], f"{lib.eps:.17g}", "1e-4", "1e-5"),
        "k_max": (["synth", "1.0", "--eps", "1e-5"], str(lib.k_max), "10", "100"),
        "shots": (["run", pair], "0", "50", "60"),
        "seed": (["run", pair, "--shots", "100"], "0", "8", "9"),
        "init": (["run", cx], "0", "1", "2"),
    }
    assert set(cases) == set(SETTINGS)
    for key, (argv, default, in_file, on_flag) in cases.items():
        config = write(tmp_path, f"{key}.cfg", f"{key} = {in_file}\n")
        flag = "--" + key.replace("_", "-")
        without = result(argv)
        from_file = result([*argv, "--config", config])
        from_flag = result([*argv, flag, on_flag])
        assert len({without, from_file, from_flag}) == 3, key
        assert without == result([*argv, flag, default]), key
        # the file's value acts as the same value given by flag
        assert from_file == result([*argv, flag, in_file]), key
        assert result([*argv, "--config", config, flag, on_flag]) == from_flag, key


def test_config_file_eps_changes_synthesis(tmp_path, capsys):
    config = write(tmp_path, "rqc.cfg", "eps = 1e-5\n")
    assert main(["synth", "1.0", "--config", config]) == EXIT_OK
    k_tight = int(capsys.readouterr().out.splitlines()[0].split()[1])
    assert main(["synth", "1.0"]) == EXIT_OK
    k_default = int(capsys.readouterr().out.splitlines()[0].split()[1])
    assert k_tight == synthesize(1.0, SynthConfig(eps=1e-5)).k
    assert k_default == synthesize(1.0, SynthConfig(eps=1e-3)).k
    assert k_tight != k_default


def test_config_file_errors(tmp_path, capsys):
    circuit = write(tmp_path, "c.rqc", "qubits 1\nh 0\n")
    bad = write(tmp_path, "bad.cfg", "bogus = 1\n")
    assert main(["run", circuit, "--config", bad]) == EXIT_INVALID
    assert "unknown config key 'bogus'" in capsys.readouterr().err
    bad = write(tmp_path, "bad2.cfg", "eps\n")
    assert main(["run", circuit, "--config", bad]) == EXIT_INVALID
    assert "expected 'key = value'" in capsys.readouterr().err
    # the file is checked as a whole, so a key that a subcommand does not
    # read (run has no --level) is still refused when it is invalid
    bad = write(tmp_path, "bad3.cfg", "level = bogus\n")
    for argv in (["run", circuit], ["synth", "1.0"], ["transpile", circuit], ["verify", circuit], ["bench"]):
        assert main([*argv, "--config", bad]) == EXIT_INVALID, argv
        out, err = capsys.readouterr()
        assert out == ""
        assert "level must be one of real, f, g; got 'bogus'" in err
    # a repeated key is refused at its second line, as an unknown key is
    dup = write(tmp_path, "dup.cfg", "eps = 1e-2\neps = 1e-5\n")
    for argv in (["run", circuit], ["synth", "1.0"], ["transpile", circuit], ["verify", circuit], ["bench"]):
        assert main([*argv, "--config", dup]) == EXIT_INVALID, argv
        out, err = capsys.readouterr()
        assert out == ""
        assert f"{dup}:2: duplicate config key 'eps'" in err


def test_a_negative_literal_is_a_value_not_an_option(tmp_path, capsys):
    # argparse reads only -1 and -.5 as negative numbers by itself: every
    # negative literal parse takes as an angle is a value, in theta and
    # in every flag, and any other dash token is still an option
    def result(argv):
        code = main(argv)
        return (code, *capsys.readouterr())

    bell = write(tmp_path, "bell.rqc", "qubits 2\nh 0\ncx 0 1\n")
    for literal in ("-1e-3", "-1E-3", "-1e+0", "-.5e1", "-2.", "-0.25", "-7"):
        want = result(["synth", "--", literal])
        assert want[0] == EXIT_OK, literal
        assert result(["synth", literal]) == want, literal
        spaced = result(["synth", literal, "--eps", "1e-2"])
        assert spaced == result(["synth", "--eps", "1e-2", "--", literal]), literal
    for flag, literal in (("--phi", "-2.5e-1"), ("--eps", "-1E-3"), ("--k-max", "-1"), ("--init", "-1")):
        argv = ["verify", bell, flag, literal]
        assert result(argv) == result(["verify", bell, f"{flag}={literal}"]), flag
    # an int setting takes the exponent form as its value, and refuses it
    with pytest.raises(SystemExit) as exc:
        main(["verify", bell, "--init", "-1e0"])
    assert exc.value.code == 2
    assert "argument --init: invalid int value: '-1e0'" in capsys.readouterr().err
    assert result(["synth", "1.0", "--phi", "-2.5e-1"])[0] == EXIT_OK
    assert result(["verify", bell, "--phi", "-2.5e-1"])[1].endswith("status: PASS\n")
    assert result(["verify", bell, "--init", "-1"]) == (
        EXIT_INVALID, "", "error: basis index -1 out of range for 2 qubit(s)\n"
    )
    assert result(["synth", "1.0", "--eps", "-1e-3"]) == (
        EXIT_INVALID, "", "error: eps must be positive\n"
    )
    for argv in (["synth", "-x"], ["synth", "1.0", "-x"], ["verify", bell, "--phi", "-e"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert capsys.readouterr().out == "", argv


def test_files_are_read_as_utf8_with_or_without_a_bom(tmp_path, capsys):
    # a byte order mark at the start of a circuit or a config file is
    # not text; each file decodes as UTF-8 under any locale
    def result(argv):
        code = main(argv)
        return (code, *capsys.readouterr())

    text = "qubits 2\nh 0\ncx 0 1\n"
    plain = write(tmp_path, "plain.rqc", text)
    bom = tmp_path / "bom.rqc"
    bom.write_bytes(b"\xef\xbb\xbf" + text.encode())
    for argv in (["verify"], ["transpile", "--level", "f"], ["run"]):
        want = result([argv[0], plain, *argv[1:]])
        assert want[0] == EXIT_OK, argv
        assert result([argv[0], str(bom), *argv[1:]]) == want, argv
    config = tmp_path / "bom.cfg"
    config.write_bytes(b"\xef\xbb\xbflevel = f\n")
    want = result(["verify", plain, "--level", "f"])
    assert "level: f\n" in want[1]
    assert result(["verify", plain, "--config", str(config)]) == want
    # under the C locale, with Python's UTF-8 mode and locale coercion
    # off, the locale's encoding is ASCII: a comment in UTF-8 and a BOM
    # still decode, and --out is written in UTF-8
    commented = tmp_path / "commented.rqc"
    commented.write_bytes("\ufeffqubits 2\nh 0 # caf\u00e9\ncx 0 1\n".encode())
    src = str(Path(cli_mod.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "LC_ALL": "C", "PYTHONUTF8": "0",
           "PYTHONCOERCECLOCALE": "0"}
    out = tmp_path / "report.txt"
    proc = subprocess.run(
        [sys.executable, "-m", "rqc.cli", "verify", str(commented), "--config", str(config),
         "--out", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_OK, "", "")
    assert out.read_text(encoding="utf-8") == want[1]


def test_bench_table(capsys):
    assert main(["bench", "--eps", "1e-2"]) == EXIT_OK
    out = capsys.readouterr().out
    rows = out.splitlines()
    assert len(rows) == 10
    assert rows[0].split()[:4] == ["name", "qubits", "gates", "real"]
    for row in rows[1:]:
        assert "PASS" in row
    names = [r.split()[0] for r in rows[1:]]
    assert "qft-3" in names and "grover-2" in names


def test_bench_prints_every_row_then_exits_4_on_a_fail(monkeypatch, capsys):
    verify = cli_mod.verify_circuit
    calls = []

    def fail_the_second(c, *args):
        calls.append(c)
        report = verify(c, *args)
        return dataclasses.replace(report, status="FAIL") if len(calls) == 2 else report

    monkeypatch.setattr(cli_mod, "verify_circuit", fail_the_second)
    assert main(["bench"]) == EXIT_VERIFY
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 10
    assert rows[0].split()[:4] == ["name", "qubits", "gates", "real"]
    assert [r.split()[8] for r in rows[1:]] == ["PASS", "FAIL"] + ["PASS"] * 7


def test_bench_deterministic_apart_from_timings(capsys):
    def stable(text):
        return [line.rsplit(None, 2)[0] for line in text.splitlines()]

    assert main(["bench", "--eps", "1e-2"]) == EXIT_OK
    a = capsys.readouterr().out
    assert main(["bench", "--eps", "1e-2"]) == EXIT_OK
    b = capsys.readouterr().out
    assert stable(a) == stable(b)


def test_bench_names_the_circuit_it_cannot_synthesize(capsys):
    # the first suite circuit already has a level-f angle out of reach
    name = bench_suite()[0][0]
    assert main(["bench", "--eps", "1e-9", "--k-max", "10"]) == EXIT_UNREACHABLE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {name}: gate 0 of the level-f circuit: no power reaches theta=")


def test_console_entry_point_runs():
    # the child imports the same rqc as this process, installed or not
    src = str(Path(cli_mod.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "rqc.cli", "synth", f"{DEFAULT_PHI:.17g}"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("k: 1\n")


def test_the_cli_runs_without_mpmath(tmp_path):
    # mpmath is a test dependency only: a child that cannot import it
    # synthesizes, lowers to level g and verifies there
    bell = write(tmp_path, "bell.rqc", "qubits 2\nh 0\ncx 0 1\n")
    src = str(Path(cli_mod.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    child = "import sys; sys.modules['mpmath'] = None; from rqc.cli import main; sys.exit(main())"
    level_g = ["--level", "g"]
    for argv in (["synth", "1.0"], ["transpile", bell, *level_g], ["verify", bell, *level_g]):
        proc = subprocess.run(
            [sys.executable, "-c", child, *argv],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, (argv, proc.stderr)
    assert proc.stdout.endswith("status: PASS\n")


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_examples():
    """{command: the lines shown after it} for each '$ ' line in README.md."""
    examples = {}
    for block in re.findall(r"^```\w*\n(.*?)^```$", README.read_text(), re.M | re.S):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, *shown = chunk.rstrip("\n").split("\n")
            examples[command] = shown
    return examples


def test_the_readme_examples_print_what_they_show(tmp_path, capsys, monkeypatch):
    # the sampled example is left out: its counts depend on numpy's version
    examples = _readme_examples()
    monkeypatch.chdir(tmp_path)
    Path("bell.rqc").write_text("\n".join(examples["cat bell.rqc"]) + "\n")
    for command in (
        "rqc transpile bell.rqc --level f",
        "rqc run bell.rqc",
        "rqc verify bell.rqc --eps 1e-3",
        "rqc synth 1.5707963 --eps 1e-4",
    ):
        assert main(command.split()[1:]) == EXIT_OK
        out, err = capsys.readouterr()
        printed = iter((out + err).splitlines())
        # each shown line, in order, except the elisions: '...' and a
        # truncated digest
        for line in examples[command]:
            if not line.endswith("..."):
                assert line in printed, (command, line)
