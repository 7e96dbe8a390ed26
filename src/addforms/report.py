"""Deterministic JSON report helpers shared by the checkers and the CLI.

Exact rationals render as {"num", "den", "dec"}; the decimal string is
computed with integer arithmetic only, so identical inputs give identical
bytes on every platform.
"""

from __future__ import annotations

import functools
import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii

import numpy as np

SCHEMA = "addforms/1"

_DECIMAL_PLACES = 12


def decimal_str(value: Fraction, places: int = _DECIMAL_PLACES) -> str:
    """Fixed-point decimal rendering, round half away from zero, trailing
    zeros trimmed."""
    value = Fraction(value)
    sign = "-" if value < 0 else ""
    num, den = abs(value.numerator), value.denominator
    scaled, rem = divmod(num * 10**places, den)
    if 2 * rem >= den:
        scaled += 1
    digits = str(scaled).rjust(places + 1, "0")
    whole, frac = digits[:-places], digits[-places:]
    frac = frac.rstrip("0")
    return f"{sign}{whole}.{frac}" if frac else f"{sign}{whole}"


def rational_json(value: Fraction) -> dict:
    value = Fraction(value)
    return {
        "num": value.numerator,
        "den": value.denominator,
        "dec": decimal_str(value),
    }


def make_report(kind: str, **fields) -> dict:
    report = {"schema": SCHEMA, "check": kind}
    report.update(fields)
    return report


# Scalars render through json's C encoder; `indent` would select its
# pure-Python encoder for the whole tree.
_encode = json.JSONEncoder().encode


def dump_json(obj) -> str:
    """Exactly the bytes of `json.dumps(obj, sort_keys=True, indent=2) + "\n"`,
    except that a 2-D integer ndarray is also accepted and written as its list
    of rows.  Dict keys must be strings."""
    out: list[str] = []
    _write(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _write(obj, newline: str, out: list[str]) -> None:
    """Append `obj` at the nesting level whose line break and indent is
    `newline`."""
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(obj):
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _write(obj[key], inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _write(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(obj, np.ndarray) and obj.ndim == 2 and obj.dtype.kind in "iu":
        if not obj.size:
            _write(obj.tolist(), newline, out)
            return
        inner = newline + "  "
        innermost = inner + "  "
        blocks = int_rows(obj, "," + inner + "[" + innermost, "," + innermost, inner + "]")
        blocks[0] = "[" + blocks[0][1:]  # no comma before the first row
        out.extend(blocks)
        out.append(newline + "]")
    else:
        out.append(_encode(obj))


# `int_rows` writes this many entries per block, so its temporaries stay small.
_BLOCK_CELLS = 1 << 13
_LIMB = np.uint64(10**4)


@functools.cache
def _limb_table() -> np.ndarray:
    """Row s * 10^4 + v: the base-10^4 limb v in four ASCII bytes, as none
    (s = 0, a limb left of the number), NUL-padded (s = 1, its leading limb)
    or zero-padded (s = 2, a limb below it).  Built on first use, so that a
    process that writes no matrix neither holds it nor touches the numpy
    loops that build it (0.5 MB resident, measured after import)."""
    v = np.arange(10**4, dtype=np.uint16)[:, None]
    zero_padded = (v // np.array([1000, 100, 10, 1], dtype=np.uint16) % 10 + ord("0")).astype(np.uint8)
    nul_padded = np.where(v >= np.array([1000, 100, 10, 0], dtype=np.uint16), zero_padded, 0)
    table = np.concatenate([np.zeros_like(zero_padded), nul_padded, zero_padded])
    table.flags.writeable = False
    return table


def int_rows(matrix: np.ndarray, head: str, sep: str, tail: str) -> list[str]:
    """The rows of a 2-D integer matrix as text, in blocks of rows: each row
    is `head`, its entries in decimal joined by `sep`, then `tail` (these
    three ASCII, with no NUL)."""
    step = max(1, _BLOCK_CELLS // matrix.shape[1])
    return [_int_block(matrix[i : i + step], head, sep, tail) for i in range(0, len(matrix), step)]


def _int_block(block: np.ndarray, head: str, sep: str, tail: str) -> str:
    """`int_rows` of one block.  The rows share one template in which each
    column's slot is as wide as its widest entry and a sign; every entry is
    written into its slot right-aligned, and the NUL padding is then dropped."""
    rows, cols = block.shape
    columns = np.ascontiguousarray(block.T)
    neg = columns < 0
    mag = columns.astype(np.uint64)  # exact for uint64 and every int64,
    np.negative(mag, out=mag, where=neg)  # whose minimum negates to 2^63
    signed = neg.any(axis=1).tolist()
    width = [len(str(top)) + s for top, s in zip(mag.max(axis=1).tolist(), signed)]
    # chars[c, i]: entry (i, c) right-aligned in `field` bytes, limb j of it
    # (from the right) in the j-th four
    field = -(-max(width) // 4) * 4
    chars = np.empty((cols, rows, field), dtype=np.uint8)
    table = _limb_table()
    for j in range(field // 4):
        index = mag % _LIMB + (mag >= _LIMB) * _LIMB + ((mag > 0) * _LIMB if j else _LIMB)
        chars[..., field - 4 * j - 4 : field - 4 * j] = np.take(table, index, axis=0)
        mag //= _LIMB
    if any(signed):
        c, i = np.nonzero(neg)
        lead = np.count_nonzero(chars[c, i] == 0, axis=1)
        chars[c, i, lead - 1] = ord("-")
    template = head + sep.join("\0" * w for w in width) + tail
    text = np.repeat(np.frombuffer(template.encode(), dtype=np.uint8)[None], rows, axis=0)
    start = len(head)
    for c, w in enumerate(width):
        text[:, start : start + w] = chars[c, :, field - w :]
        start += w + len(sep)
    return text.tobytes().replace(b"\0", b"").decode()
