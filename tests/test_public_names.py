"""rqc's __all__ and its public attributes name the same things."""

import importlib
import types

import rqc

# the entry points, the types they return or raise, the engines, the
# encoding and the circuit library
EXPORTED = [
    "AncillaLeakError",
    "Circuit",
    "ComplexState",
    "DEFAULT_PHI",
    "Gate",
    "GateKind",
    "LoweringLevel",
    "NotReachable",
    "ParseError",
    "RealState",
    "StageResult",
    "SynthConfig",
    "SynthesisResult",
    "SynthesizedGate",
    "TranspileReport",
    "VerificationReport",
    "budget",
    "decode",
    "distribution",
    "emit",
    "encode",
    "gate_matrix",
    "grover_two_qubit",
    "init_basis",
    "init_basis_real",
    "is_real",
    "marginal_distribution",
    "parse",
    "qft",
    "random_circuit",
    "run_complex",
    "run_real",
    "sample",
    "synthesize",
    "synthesize_all",
    "transpile",
    "verify_circuit",
]

# passes and helpers that are imported from their modules, not from rqc
MODULE_ONLY = {
    "circuit": ["require_valid"],
    "encoding": ["add_work_ancilla", "strip_work_ancilla"],
    "synth": ["orbit_angle", "synthesis_error_to_gate_error"],
    "transpile": [
        "achieved_circuit",
        "encode_pass",
        "lower_ry_pass",
        "materialize_fixed",
        "normalize_pass",
    ],
    "verify": ["circuit_digest", "tv_distance"],
}


def test_every_exported_name_resolves():
    assert [name for name in rqc.__all__ if not hasattr(rqc, name)] == []
    assert len(set(rqc.__all__)) == len(rqc.__all__)


def test_every_public_attribute_is_exported():
    public = {
        name
        for name, value in vars(rqc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(public - set(rqc.__all__)) == []


def test_the_exported_names():
    assert sorted(rqc.__all__) == EXPORTED


def test_passes_and_helpers_stay_in_their_modules():
    for module, names in MODULE_ONLY.items():
        home = importlib.import_module(f"rqc.{module}")
        for name in names:
            assert callable(getattr(home, name, None)), f"rqc.{module}.{name}"
            assert name not in rqc.__all__, name
