"""Matrix and weight families as types.

Each family is a KotheMatrix or WeightSequence subclass.  Its tail_tag (the
key of shifts._TAIL_ATTESTATIONS) follows from the type and its fields and
is never a constructor argument; its JSON wire form reads back to an equal
object; and no family overrides a method that perfbench/trace_op.py wraps
on the base classes, which would drop it out of the per-layer counts.
"""

import dataclasses
import importlib.util
import json
from fractions import Fraction
from pathlib import Path

import pytest

from shiftlab.blocks import BlockWeights, build_blocks
from shiftlab.scalars import InvalidSpecError
from shiftlab.shifts import (
    DualWeights,
    WeightSequence,
    constant_weights,
    geometric_weights,
    table_weights,
    weights_from_json,
)
from shiftlab.spaces import (
    HalflineMatrix,
    KotheMatrix,
    PowerMatrix,
    ScaledMatrix,
    SpaceSpec,
    constant_matrix,
    space_from_json,
    space_to_json,
    table_matrix,
)

F = Fraction
TRACE_OP = Path(__file__).resolve().parent.parent / "perfbench" / "trace_op.py"
ROWS = {-1: [1, 2], 0: [F(1, 3)], 1: [2, F(7, 2)]}

# name -> (space, tail_tag of its matrix)
SPACES = {
    "constant": (SpaceSpec(constant_matrix(F(5, 3), "N"), 2), "constant"),
    "power": (SpaceSpec(PowerMatrix("N"), 1), "polynomial"),
    "halfline": (SpaceSpec(HalflineMatrix(), 0), "step"),
    "table-hold": (SpaceSpec(table_matrix(ROWS, -1, 1, tail="hold"), 0), "hold"),
    "table-error": (SpaceSpec(table_matrix({j + 2: r for j, r in ROWS.items()}, 1, 3,
                                          index_set="N"), 1), None),
}
# name -> (weights, tail_tag)
WEIGHTS = {
    "constant": (constant_weights(F(3, 7)), "constant"),
    "geometric": (geometric_weights(2, F(1, 2), abs_index=True), None),
    "table-hold": (table_weights({-1: 2, 0: F(1, 3), 1: 1}, tail="hold"), None),
    "table-error": (table_weights({-2: 2, 0: F(1, 3), 1: 1}), None),
    "blocks": (build_blocks(2), None),
}
# the families with no wire form to read back
UNWRITTEN = {ScaledMatrix, DualWeights}


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
def test_tail_tag_is_never_an_init_field(cls):
    assert "tail_tag" not in {f.name for f in dataclasses.fields(cls) if f.init}


def test_every_family_type_is_exercised():
    written = ({type(space.matrix) for space, _ in SPACES.values()}
               | {type(weights) for weights, _ in WEIGHTS.values()})
    assert written | UNWRITTEN == FAMILY_TYPES
    assert BlockWeights in written


@pytest.mark.parametrize("name", sorted(SPACES))
def test_space_round_trip_keeps_the_type_and_tail_tag(name):
    space, tag = SPACES[name]
    again = space_from_json(json.loads(json.dumps(space_to_json(space))))
    assert again == space and type(again.matrix) is type(space.matrix)
    assert again.matrix.tail_tag == space.matrix.tail_tag == tag


@pytest.mark.parametrize("name", sorted(WEIGHTS))
def test_weight_round_trip_keeps_the_type_and_tail_tag(name):
    weights, tag = WEIGHTS[name]
    again = weights_from_json(json.loads(json.dumps(weights.to_json())))
    assert again == weights and type(again) is type(weights)
    assert again.tail_tag == weights.tail_tag == tag


def test_unwritten_families():
    dual = DualWeights(base=constant_weights(2), shift=1)
    assert dual.tail_tag == "constant"
    assert DualWeights(base=WEIGHTS["table-error"][0], shift=-1).tail_tag is None
    with pytest.raises(InvalidSpecError, match="cannot serialize weight family 'dual'"):
        dual.to_json()
    scaled = ScaledMatrix(PowerMatrix("N"), lambda j: F(1, j))
    assert scaled.index_set == "N" and scaled.tail_tag is None
    assert scaled.entry(3, 2) == F(16, 3)
    with pytest.raises(InvalidSpecError, match="cannot serialize matrix family 'scaled'"):
        space_to_json(SpaceSpec(scaled, 1))
