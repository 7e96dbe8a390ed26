import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from addforms.report import _BLOCK_CELLS, dump_json, int_rows


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


def _int_matrices(dtype):
    """Matrices of `dtype` whose entries favour its extremes and the edges of
    the writer's four-digit limbs."""
    info = np.iinfo(dtype)
    edges = [info.min, info.max, 0, -1, 9, 10, 9999, 10**4, 10**18, 2**63]
    edges = [v for v in edges if info.min <= v <= info.max]
    return arrays(dtype, _SHAPES, elements=st.integers(info.min, info.max) | st.sampled_from(edges))


_INT_MATRICES = st.sampled_from(
    [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]
).flatmap(_int_matrices)
_WRAPS = st.lists(st.sampled_from([lambda v: {"m": v, "n": 1}, lambda v: [v, "x"]]), max_size=3)


@settings(max_examples=200, deadline=None)
@given(_INT_MATRICES, _WRAPS, _TREES)
def test_integer_matrices_dump_as_their_rows(matrix, wraps, tree):
    nested, plain = matrix, matrix.tolist()
    for wrap in wraps:
        nested, plain = wrap(nested), wrap(plain)
    assert dump_json(nested) == reference(plain)
    report = {"elements": matrix, "size": len(matrix), "rest": [tree, {"m": matrix}]}
    plain = {"elements": matrix.tolist(), "size": len(matrix), "rest": [tree, {"m": matrix.tolist()}]}
    assert dump_json(report) == reference(plain)


def test_integer_rows_across_blocks_of_different_widths():
    # 20000 x 3 entries span several blocks; their widths change every 1000 rows
    rng = np.random.default_rng(5)
    digits = 10 ** (np.arange(20000) // 1000 % 19)[:, None]
    matrix = rng.integers(-digits, digits, size=(20000, 3))
    assert len(matrix) * 3 > 4 * _BLOCK_CELLS
    assert dump_json({"m": matrix}) == reference({"m": matrix.tolist()})
    lines = "".join(",".join(map(str, row)) + "\n" for row in matrix.tolist())
    assert "".join(int_rows(matrix, "", ",", "\n")) == lines
@pytest.mark.parametrize(
    "obj",
    [{1: 2}, np.zeros((2, 2)), np.arange(3), np.int64(3), {"a": {1, 2}}],
)
def test_dump_json_refuses_what_it_cannot_write(obj):
    with pytest.raises(TypeError):
        dump_json(obj)
