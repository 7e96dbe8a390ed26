"""Deterministic JSON report helpers shared by the checkers and the CLI.

Exact rationals render as {"num", "den", "dec"}; the decimal string is
computed with integer arithmetic only, so identical inputs give identical
bytes on every platform.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii

# numpy is loaded by `abelian` before any report is written
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
        # one %d template for all rows, filled from Python ints
        inner = newline + "  "
        innermost = inner + "  "
        row = "[" + innermost + ("," + innermost).join(["%d"] * obj.shape[1]) + inner + "]"
        rows = ("," + inner).join([row] * obj.shape[0])
        out.append("[" + inner + rows % tuple(obj.ravel().tolist()) + newline + "]")
    else:
        out.append(_encode(obj))
