"""JSON codecs for matrices, polynomials, and ideal shorthands.

Matrices travel as {"shape": [rows, cols], "data": [[re, im], ...]} with
row-major data; polynomial terms as {"word": [letters], "re": x, "im": y}.
Reports embed matrices rather than referencing files, so a report is a
self-contained golden artifact.
"""

from __future__ import annotations

import sys

import numpy as np

from .contractions import check_count
from .errors import InvalidParameterError
from .ideals import (
    NcPolynomial,
    commutator_generators,
    q_commutator_generators,
    word_length_generators,
)
from .words import Word


def matrix_to_json(a: np.ndarray) -> dict:
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    return {
        "shape": [int(a.shape[0]), int(a.shape[1])],
        "data": np.ascontiguousarray(a).reshape(-1).view(np.float64).reshape(-1, 2).tolist(),
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    try:
        rows, cols = (int(x) for x in obj["shape"])
        flat = np.array([complex(re, im) for re, im in obj["data"]], dtype=complex)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParameterError(f"bad matrix object: {exc}") from exc
    if flat.size != rows * cols:
        raise InvalidParameterError(f"matrix data length {flat.size} != {rows}*{cols}")
    if not np.isfinite(flat).all():
        raise InvalidParameterError("matrix entries must be finite")
    return flat.reshape(rows, cols)


def _finite_array(obj, dtype, what: str) -> np.ndarray:
    try:
        arr = np.asarray(obj, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise InvalidParameterError(f"bad {what}: {exc}") from exc
    if not np.isfinite(arr).all():
        raise InvalidParameterError(f"{what} entries must be finite")
    return arr


def _real(value, what: str) -> float:
    """A finite JSON number: an int or a float, not a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise InvalidParameterError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def polynomial_from_json(obj: list) -> NcPolynomial:
    """Terms {"word": [letters >= 1], "re": x, "im": y} with finite x and y;
    anything else raises InvalidParameterError."""
    if not isinstance(obj, list):
        raise InvalidParameterError(f"a polynomial is a list of terms, got {obj!r}")
    terms: dict[Word, complex] = {}
    for item in obj:
        if not isinstance(item, dict) or not isinstance(item.get("word"), list):
            raise InvalidParameterError(f"a term needs a list of letters as 'word', got {item!r}")
        w = Word(tuple(check_count("letter", x, 1) for x in item["word"]))
        terms[w] = terms.get(w, 0j) + complex(_real(item.get("re", 0.0), "re"), _real(item.get("im", 0.0), "im"))
    return NcPolynomial(terms)


def _custom_generators(n: int, obj) -> list[NcPolynomial]:
    """Custom generators: every letter at most n, and every generator
    homogeneous (all its terms of one length), since N_J is built degree by
    degree."""
    if not isinstance(obj, list):
        raise InvalidParameterError(f"custom generators are a list of polynomials, got {obj!r}")
    gens = [polynomial_from_json(p) for p in obj]
    if any(x > n for g in gens for w in g.terms for x in w.letters):
        raise InvalidParameterError(f"a generator uses a letter beyond n = {n}")
    for i, g in enumerate(gens, start=1):
        if not g.is_homogeneous:
            raise InvalidParameterError(f"custom generator {i}, {g}, is not homogeneous: "
                                        f"its terms have lengths {sorted({len(w) for w in g.terms})}")
    return gens


def word_length_degree(spec) -> int | None:
    """m for the word-length ideal, given as "truncated(m)" or as
    {"kind": "truncated", "m": m}; None for every other spec. An m that is
    not an integer >= 1 raises InvalidParameterError."""
    if isinstance(spec, str):
        s = spec.strip().lower()
        if not (s.startswith("truncated(") and s.endswith(")")):
            return None
        m = s[len("truncated(") : -1].strip()
        return check_count("m", int(m) if m.isdecimal() else m, 1)
    if isinstance(spec, dict) and str(spec.get("kind", "")).lower() == "truncated":
        return check_count("m", spec.get("m"), 1)
    return None


def ideal_from_spec(n: int, spec, max_degree: int | None = None) -> list[NcPolynomial]:
    """Resolve an ideal description to generators.

    Accepts the shorthand strings "free", "commutative", "truncated(m)",
    "q-commutative" (with a dict carrying the q matrix), or an explicit
    {"kind": ..., ...} / list-of-polynomials form. A malformed spec (an m that
    is not an integer >= 1, a bad term, a letter beyond n) raises
    InvalidParameterError before any generator is used, and so does a
    generator of degree above ``max_degree``, named; truncated(m) is checked
    before its n^m monomials exist."""
    m = word_length_degree(spec)
    if m is not None and max_degree is not None and m > max_degree:
        raise InvalidParameterError(f"truncated({m}) exceeds the truncation degree {max_degree}")
    gens = _generators_from_spec(n, spec) if m is None else word_length_generators(n, m)
    for i, g in enumerate(gens, start=1):
        if max_degree is not None and g.degree > max_degree:
            raise InvalidParameterError(f"ideal generator {i}, {g}, of degree {g.degree} exceeds the truncation "
                                        f"degree {max_degree}")
    return gens


def _generators_from_spec(n: int, spec) -> list[NcPolynomial]:
    """The generators of every spec but truncated(m)."""
    if spec is None:
        return []
    if isinstance(spec, str):
        s = spec.strip().lower()
        if s == "free":
            return []
        if s == "commutative":
            return commutator_generators(n)
        raise InvalidParameterError(f"unknown ideal shorthand {spec!r}")
    if isinstance(spec, list):
        return _custom_generators(n, spec)
    if isinstance(spec, dict):
        kind = str(spec.get("kind", "")).lower().replace("_", "-")
        if kind == "free":
            return []
        if kind == "commutative":
            return commutator_generators(n)
        if kind == "q-commutative":
            q = spec["q"]
            q = matrix_from_json(q) if isinstance(q, dict) else _finite_array(q, complex, "q matrix")
            if q.shape != (n, n):
                raise InvalidParameterError(f"q matrix must be {n}x{n}")
            return q_commutator_generators(q)
        if kind == "custom":
            return _custom_generators(n, spec["generators"])
        raise InvalidParameterError(f"unknown ideal kind {spec.get('kind')!r}")
    raise InvalidParameterError("ideal spec must be a string, list, or object")


def complex_to_json(z: complex) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def point_from_json(obj, n: int) -> np.ndarray:
    arr = _finite_array(obj, float, "point")
    if arr.shape == (n, 2):
        return arr[:, 0] + 1j * arr[:, 1]
    if arr.shape == (n,):
        return arr.astype(complex)
    raise InvalidParameterError(f"point must be a list of {n} [re, im] pairs")
