"""rqc: real-amplitude quantum circuit toolkit.

Transpiles arbitrary circuits into provably equivalent circuits with only
real amplitudes, lowers them to a single fixed two-qubit gate, simulates
both forms on dual statevector engines, and verifies equivalence
numerically at every stage.

The package exports the entry points (transpile, verify_circuit,
synthesize, parse, emit), the types they return or raise, the two
engines, the encoding and the circuit library. The passes and their
helpers are imported from their modules, as in
`from rqc.transpile import normalize_pass`.
"""

from .circuit import Circuit, Gate, GateKind
from .encoding import AncillaLeakError, decode, encode, marginal_distribution
from .gates import gate_matrix, is_real
from .library import grover_two_qubit, qft, random_circuit
from .sim import (
    ComplexState,
    RealState,
    distribution,
    init_basis,
    init_basis_real,
    run_complex,
    run_real,
    sample,
)
from .synth import DEFAULT_PHI, NotReachable, SynthConfig, SynthesisResult, budget, synthesize
from .textio import ParseError, emit, parse
from .transpile import LoweringLevel, SynthesizedGate, TranspileReport, synthesize_all, transpile
from .verify import StageResult, VerificationReport, verify_circuit

__version__ = "0.1.0"

__all__ = [
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
