import math

import pytest

from rqc import Circuit, Gate, GateKind, require_valid, transpile


def test_kind_arity_table():
    assert GateKind.GPHASE.num_operands == 0
    for k in (GateKind.CX, GateKind.CZ, GateKind.F):
        assert k.num_operands == 2
    one_qubit = set(GateKind) - {GateKind.CX, GateKind.CZ, GateKind.F, GateKind.GPHASE}
    for k in one_qubit:
        assert k.num_operands == 1
    parametric = {GateKind.RX, GateKind.RY, GateKind.RZ, GateKind.F, GateKind.GPHASE}
    for k in GateKind:
        assert k.num_params == (1 if k in parametric else 0)


def test_mnemonics_are_enum_values():
    for k in GateKind:
        assert GateKind(k.value) is k
        assert k.value == k.value.lower()


def test_builders_record_gates():
    c = Circuit(3)
    c.h(0).cx(0, 1).rz(2, 0.5).f(1, 2, -1.0).gphase(0.25)
    assert c.gates == [
        Gate(GateKind.H, (0,)),
        Gate(GateKind.CX, (0, 1)),
        Gate(GateKind.RZ, (2,), 0.5),
        Gate(GateKind.F, (1, 2), -1.0),
        Gate(GateKind.GPHASE, (), 0.25),
    ]
    assert c.validate() == []


def test_builders_cover_every_kind():
    c = Circuit(2)
    c.x(0).y(0).z(0).h(0).s(0).sdg(0).t(0).tdg(0)
    c.rx(0, 0.1).ry(0, 0.2).rz(0, 0.3)
    c.cx(0, 1).cz(1, 0).f(0, 1, 0.4).gphase(0.5)
    assert [g.kind for g in c.gates] == list(GateKind)
    assert c.validate() == []


def test_builder_coerces_int_angles_to_float():
    c = Circuit(1).rz(0, 1)
    assert isinstance(c.gates[0].param, float)
    assert c.validate() == []


def test_name_does_not_affect_equality():
    a = Circuit(2, name="a").h(0)
    b = Circuit(2, name="b").h(0)
    assert a == b


def test_validate_num_qubits():
    assert Circuit(0).validate() == ["num_qubits must be a positive integer"]
    assert "positive integer" in Circuit(-3).validate()[0]
    assert Circuit(True).validate() == ["num_qubits must be a positive integer"]
    # a register size of the wrong type is listed, not raised on
    for n in ("3", None):
        c = Circuit(n, [Gate(GateKind.X, (0,))])
        assert c.validate() == ["num_qubits must be a positive integer"]


def test_validate_operand_errors():
    c = Circuit(2)
    c.gates.append(Gate(GateKind.H, (0, 1)))
    c.gates.append(Gate(GateKind.H, (5,)))
    c.gates.append(Gate(GateKind.CX, (1, 1)))
    c.gates.append(Gate(GateKind.CX, (0,)))
    # True == 1, but emit would write "cx True 0", which parse refuses
    c.gates.append(Gate(GateKind.CX, (True, 0)))
    c.gates.append(Gate(GateKind.X, (1.5,)))
    c.gates.append(Gate(GateKind.X, ("a",)))
    # malformed records are listed, not raised on; a list of operands
    # would pass every check and then fail to hash in materialize_fixed
    c.gates.append(Gate(GateKind.X, 0))
    c.gates.append(Gate(GateKind.F, [0, 1], 0.5))
    c.gates.append(Gate("x", (0,)))
    c.gates.append(("x", 0))
    assert c.validate() == [
        "gate 0: h takes 1 operand(s), got 2",
        "gate 1: operand 5 out of range for 2 qubit(s)",
        "gate 2: duplicate operands",
        "gate 3: cx takes 2 operand(s), got 1",
        "gate 4: operand True must be an integer",
        "gate 5: operand 1.5 must be an integer",
        "gate 6: operand 'a' must be an integer",
        "gate 7: operands must be a tuple, got int",
        "gate 8: operands must be a tuple, got list",
        "gate 9: kind 'x' is not a GateKind",
        "gate 10: ('x', 0) is not a Gate",
    ]
    bad_operands = Circuit(2, [Gate(GateKind.F, [0, 1], 0.5)])
    with pytest.raises(ValueError, match="^gate 0: operands must be a tuple, got list$"):
        transpile(bad_operands)


def test_validate_angle_errors():
    c = Circuit(1)
    c.gates.append(Gate(GateKind.H, (0,), 0.5))
    c.gates.append(Gate(GateKind.RZ, (0,)))
    c.gates.append(Gate(GateKind.RZ, (0,), math.nan))
    c.gates.append(Gate(GateKind.RZ, (0,), math.inf))
    c.gates.append(Gate(GateKind.RY, (0,), 1))
    assert c.validate() == [
        "gate 0: h takes no angle",
        "gate 1: rz needs an angle",
        "gate 2: angle must be a finite number",
        "gate 3: angle must be a finite number",
        "gate 4: angle must be a float, got int",
    ]


def test_require_valid_joins_messages():
    c = Circuit(1)
    c.gates.append(Gate(GateKind.RZ, (0,)))
    c.gates.append(Gate(GateKind.CX, (0, 0)))
    with pytest.raises(ValueError) as e:
        require_valid(c)
    assert "gate 0: rz needs an angle; gate 1:" in str(e.value)
    require_valid(Circuit(1).h(0))
