"""Matrix and weight families as types.

Each family is a KotheMatrix or WeightSequence subclass.  A matrix
family's tail attestation follows from the type and its fields and is never
a constructor argument, and it has a "profile" reason exactly when the
family names its ratio minimisers; shifts.tail_attestation reads it under
constant weights and their duals only.  A family's JSON wire form reads
back to an equal object with the same attestation; and no family overrides
a method that perfbench/trace_op.py wraps on the base classes, which would
drop it out of the per-layer counts.  An attested matrix's log2 rows are
concave, or constantly -inf, on each side outside its edges.
"""

import dataclasses
import importlib.util
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from shiftlab.blocks import BlockWeights, build_blocks
from shiftlab.scalars import InvalidSpecError
from shiftlab.shifts import (
    DualWeights,
    ShiftOperator,
    WeightSequence,
    constant_weights,
    geometric_weights,
    table_weights,
    tail_attestation,
    weights_from_json,
)
from shiftlab.spaces import (
    PRESET_NAMES,
    HalflineMatrix,
    KotheMatrix,
    PowerMatrix,
    ScaledMatrix,
    SpaceSpec,
    constant_matrix,
    preset,
    space_from_json,
    space_to_json,
    table_matrix,
)

F = Fraction
TRACE_OP = Path(__file__).resolve().parent.parent / "perfbench" / "trace_op.py"
ROWS = {-1: [1, 2], 0: [F(1, 3)], 1: [2, F(7, 2)]}

# name -> (space, the name in its matrix's attestation)
SPACES = {
    "constant": (SpaceSpec(constant_matrix(F(5, 3), "N"), 2), "constant"),
    "power": (SpaceSpec(PowerMatrix("N"), 1), "polynomial"),
    "halfline": (SpaceSpec(HalflineMatrix(), 0), "step"),
    "table-hold": (SpaceSpec(table_matrix(ROWS, -1, 1, tail="hold"), 0), "hold"),
    "table-error": (SpaceSpec(table_matrix({j + 2: r for j, r in ROWS.items()}, 1, 3,
                                          index_set="N"), 1), None),
}
# name -> (weights, whether tail_attestation admits them)
WEIGHTS = {
    "constant": (constant_weights(F(3, 7)), True),
    "geometric": (geometric_weights(2, F(1, 2), abs_index=True), False),
    "table-hold": (table_weights({-1: 2, 0: F(1, 3), 1: 1}, tail="hold"), False),
    "table-error": (table_weights({-2: 2, 0: F(1, 3), 1: 1}), False),
    "blocks": (build_blocks(2), False),
}
# the families with no wire form to read back
UNWRITTEN = {ScaledMatrix, DualWeights}
SCALED = ScaledMatrix(PowerMatrix("N"), lambda j: F(1, j))


def _on_c0_z(weights) -> ShiftOperator:
    return ShiftOperator("backward", weights, preset("c0_Z"))


def _family_types(base) -> set:
    out, todo = set(), [base]
    while todo:
        for sub in todo.pop().__subclasses__():
            out.add(sub)
            todo.append(sub)
    return out


FAMILY_TYPES = _family_types(KotheMatrix) | _family_types(WeightSequence)


def _traced_methods() -> dict:
    """The methods trace_op wraps, by base class name."""
    spec = importlib.util.spec_from_file_location("trace_op", TRACE_OP)
    trace_op = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_op)
    out: dict = {}
    for (_, cls_name), attrs in (*trace_op.COUNTED_METHODS.items(),
                                 *trace_op.TIMED_METHODS.items()):
        out.setdefault(cls_name, set()).update(attrs)
    return out


def test_no_family_overrides_a_traced_method():
    traced = _traced_methods()
    assert traced == {"KotheMatrix": {"entry_log2", "log2_row"},
                      "WeightSequence": {"value", "log2", "log2_window"}}
    for base in (KotheMatrix, WeightSequence):
        for cls in _family_types(base):
            assert not traced[base.__name__] & set(vars(cls)), cls.__name__


@pytest.mark.parametrize("cls", sorted(FAMILY_TYPES | {KotheMatrix, WeightSequence},
                                       key=lambda c: c.__name__))
def test_attestation_is_never_an_init_field(cls):
    assert "attestation" not in {f.name for f in dataclasses.fields(cls) if f.init}


def test_a_profile_reason_comes_with_ratio_minimisers():
    matrices = [space.matrix for space, _ in SPACES.values()] + [SCALED]
    assert {type(m) for m in matrices} == _family_types(KotheMatrix)
    for m in matrices:
        assert ("profile" in (m.attestation or {})) == hasattr(m, "ratio_minimisers"), m.family


def test_every_family_type_is_exercised():
    written = ({type(space.matrix) for space, _ in SPACES.values()}
               | {type(weights) for weights, _ in WEIGHTS.values()})
    assert written | UNWRITTEN == FAMILY_TYPES
    assert BlockWeights in written


@pytest.mark.parametrize("matrix", [space.matrix for space, _ in SPACES.values()]
                         + [preset(name).matrix for name in PRESET_NAMES],
                         ids=[*SPACES, *PRESET_NAMES])
def test_log2_rows_are_concave_outside_the_edges(matrix):
    # past its edges a walk of constant weights has log-concave norms, so a
    # last step that does not rise bounds the rest (criteria._window_bound);
    # the rows are read on the index set, which an orbit on N leaves only to
    # die
    if matrix.attestation is None:
        return
    first = 1 if matrix.index_set == "N" else -40
    for k in range(1, 6):
        edges = matrix.edges(k)
        sides = [(first, 40)] if edges is None else [(first, edges[0]), (max(first, edges[1]), 40)]
        for a, b in sides:
            row = matrix.log2_row(k, a, b) if a <= b else np.array([])
            assert np.all(row == -np.inf) or np.all(np.diff(row, 2) <= 0), (k, a, b)


@pytest.mark.parametrize("name", sorted(SPACES))
def test_space_round_trip_keeps_the_type_and_attestation(name):
    space, tag = SPACES[name]
    again = space_from_json(json.loads(json.dumps(space_to_json(space))))
    assert again == space and type(again.matrix) is type(space.matrix)
    assert again.matrix.attestation == space.matrix.attestation
    assert (again.matrix.attestation or {}).get("name") == tag


@pytest.mark.parametrize("name", sorted(WEIGHTS))
def test_weight_round_trip_keeps_the_type_and_tail_attestation(name):
    weights, attested = WEIGHTS[name]
    again = weights_from_json(json.loads(json.dumps(weights.to_json())))
    assert again == weights and type(again) is type(weights)
    found = tail_attestation(_on_c0_z(again))
    assert found == tail_attestation(_on_c0_z(weights))
    assert found == (preset("c0_Z").matrix.attestation if attested else None)


def test_unwritten_families():
    dual = DualWeights(base=constant_weights(2), shift=1)
    assert tail_attestation(_on_c0_z(dual))["name"] == "constant"
    assert tail_attestation(_on_c0_z(DualWeights(base=dual, shift=-1)))["name"] == "constant"
    assert tail_attestation(_on_c0_z(DualWeights(base=WEIGHTS["table-error"][0], shift=-1))) is None
    with pytest.raises(InvalidSpecError, match="cannot serialize weight family 'dual'"):
        dual.to_json()
    assert SCALED.index_set == "N" and SCALED.attestation is None
    assert tail_attestation(ShiftOperator("forward", dual, SpaceSpec(SCALED, 1))) is None
    assert SCALED.entry(3, 2) == F(16, 3)
    with pytest.raises(InvalidSpecError, match="cannot serialize matrix family 'scaled'"):
        space_to_json(SpaceSpec(SCALED, 1))
