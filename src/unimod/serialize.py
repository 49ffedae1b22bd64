"""JSON encoding of complex vectors and matrices.

Complex numbers travel as [re, im] pairs, matrices as row-major nested
arrays. Everything raises InvalidArgumentError on schema violations so the
CLI can map them to its parse-error exit code.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import InvalidArgumentError


def complex_to_pair(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def is_json_number(x) -> bool:
    """Whether x is a number as json.loads gives one: an int or a float, not a bool."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def json_float(x, what: str = "a [re, im] part") -> float:
    """float(x) of a JSON number; json.loads gives an int of any size, and
    one beyond the float range raises InvalidArgumentError, not OverflowError."""
    try:
        return float(x)
    except OverflowError:
        raise InvalidArgumentError(f"{what} is an integer beyond the float range") from None


def pair_to_complex(obj) -> complex:
    if not isinstance(obj, (list, tuple)) or len(obj) != 2 or not all(map(is_json_number, obj)):
        raise InvalidArgumentError(f"expected a [re, im] pair, got {obj!r}")
    return complex(json_float(obj[0]), json_float(obj[1]))


def vector_to_json(v) -> list:
    return [complex_to_pair(z) for z in np.asarray(v).ravel()]


def json_to_vector(obj) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise InvalidArgumentError("expected a nonempty list of [re, im] pairs")
    return np.array([pair_to_complex(row) for row in obj], dtype=np.complex128)


def matrix_to_json(a) -> list:
    a = np.asarray(a)
    return [[complex_to_pair(z) for z in row] for row in a]


def json_to_matrix(obj) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise InvalidArgumentError("expected a nonempty list of matrix rows")
    rows = [json_to_vector(row) for row in obj]
    width = rows[0].size
    if any(r.size != width for r in rows):
        raise InvalidArgumentError("matrix rows have inconsistent lengths")
    return np.vstack(rows)


def load_json_file(path):
    """json.loads of a file's UTF-8 text; malformed JSON, bytes that are not
    UTF-8 and an integer longer than int() reads (4300 digits) raise InvalidArgumentError."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InvalidArgumentError(f"malformed JSON at byte offset {exc.pos}: {exc.msg}") from None
    except ValueError as exc:
        raise InvalidArgumentError(f"unreadable JSON file {path}: {exc}") from None


def load_matrix_file(path) -> np.ndarray:
    """Read a matrix fixture: a bare row-major nested array of [re, im] pairs."""
    return json_to_matrix(load_json_file(path))


def dump_json(path, payload) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
