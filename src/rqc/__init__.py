"""rqc: real-amplitude quantum circuit toolkit.

Transpiles arbitrary circuits into provably equivalent circuits with only
real amplitudes, lowers them to a single fixed two-qubit gate, simulates
both forms on dual statevector engines, and verifies equivalence
numerically at every stage.
"""

from .circuit import Circuit, Gate, GateKind, require_valid
from .encoding import (
    AncillaLeakError,
    add_work_ancilla,
    decode,
    encode,
    marginal_distribution,
    strip_work_ancilla,
)
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
from .synth import (
    DEFAULT_PHI,
    NotReachable,
    SynthConfig,
    SynthesisResult,
    budget,
    orbit_angle,
    synthesis_error_to_gate_error,
    synthesize,
)
from .textio import ParseError, emit, parse
from .transpile import (
    LoweringLevel,
    SynthesizedGate,
    TranspileReport,
    achieved_circuit,
    encode_pass,
    lower_ry_pass,
    materialize_fixed,
    normalize_pass,
    synthesize_all,
    transpile,
)
from .verify import (
    StageResult,
    VerificationReport,
    circuit_digest,
    tv_distance,
    verify_circuit,
)

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
    "achieved_circuit",
    "add_work_ancilla",
    "budget",
    "circuit_digest",
    "decode",
    "distribution",
    "emit",
    "encode",
    "encode_pass",
    "gate_matrix",
    "grover_two_qubit",
    "init_basis",
    "init_basis_real",
    "is_real",
    "lower_ry_pass",
    "marginal_distribution",
    "materialize_fixed",
    "normalize_pass",
    "orbit_angle",
    "parse",
    "qft",
    "random_circuit",
    "require_valid",
    "run_complex",
    "run_real",
    "sample",
    "strip_work_ancilla",
    "synthesis_error_to_gate_error",
    "synthesize",
    "synthesize_all",
    "transpile",
    "tv_distance",
    "verify_circuit",
]
