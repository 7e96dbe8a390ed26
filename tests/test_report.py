import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from addforms.report import dump_json


def reference(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**100), max_value=2**100),
    st.floats(),
    st.sampled_from([-0.0, float("nan"), float("inf"), -float("inf"), 2**63, -(2**63) - 1]),
    st.text(max_size=8),
    st.sampled_from(['"', '"]', "[1, 2]", "{}", "\\", "é", "日本", " ", "\x00", "%d"]),
)

_INT_ROWS = st.lists(st.lists(st.integers(), min_size=1, max_size=3), max_size=4)

_TREES = st.recursive(
    _SCALARS | _INT_ROWS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=4) | st.sampled_from(['"', "é", "[", "a b"]), children, max_size=4),
    ),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(_TREES)
def test_dump_json_matches_json_dumps(tree):
    assert dump_json(tree) == reference(tree)


_SHAPES = st.one_of(
    st.tuples(st.just(0), st.integers(1, 12)),
    st.tuples(st.integers(1, 40), st.just(1)),
    st.tuples(st.integers(1, 40), st.just(12)),
)


@settings(max_examples=100, deadline=None)
@given(arrays(np.int64, _SHAPES), _TREES)
def test_integer_matrices_dump_as_their_rows(matrix, tree):
    assert dump_json(matrix) == reference(matrix.tolist())
    report = {"elements": matrix, "size": len(matrix), "rest": [tree, {"m": matrix}]}
    plain = {"elements": matrix.tolist(), "size": len(matrix), "rest": [tree, {"m": matrix.tolist()}]}
    assert dump_json(report) == reference(plain)


@pytest.mark.parametrize(
    "obj",
    [{1: 2}, np.zeros((2, 2)), np.arange(3), np.int64(3), {"a": {1, 2}}],
)
def test_dump_json_refuses_what_it_cannot_write(obj):
    with pytest.raises(TypeError):
        dump_json(obj)
