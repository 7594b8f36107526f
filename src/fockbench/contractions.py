"""Row contractions on finite-dimensional spaces: defects, the associated
completely positive map, purity, and spectral radius."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from ._linalg import RANK_RTOL, RankDecision, eigh_descending, rank_decision, spectral_norm
from .errors import InvalidParameterError, NotARowContractionError
from .ideals import NcPolynomial, evaluate_polynomial


@dataclass
class RowContraction:
    """A validated operator tuple with row norm at most one.

    ``delta`` and ``delta_star`` are the Hermitian square roots of the row
    and column defects; ``defect_basis`` / ``defect_star_basis`` hold
    orthonormal eigenvector bases of the corresponding defect spaces, ordered
    by decreasing defect eigenvalue, cut by the rank decisions
    ``defect_decision`` / ``defect_star_decision``. ``orbit(k)`` serves
    Phi^k(I) from a lazily extended cache shared by every tail budget and
    curvature sequence; ``purity_limit()`` serves the one purity limit every
    check reads.
    """

    matrices: tuple[np.ndarray, ...]
    n: int
    dim: int
    delta: np.ndarray
    delta_star: np.ndarray
    defect_basis: np.ndarray
    defect_star_basis: np.ndarray
    defect_decision: RankDecision
    defect_star_decision: RankDecision
    _orbit: list[np.ndarray] = field(default_factory=list, init=False, repr=False, compare=False)
    _purity: PurityResult | None = field(default=None, init=False, repr=False, compare=False)

    def orbit(self, k: int) -> np.ndarray:
        """Phi^k(I), read-only; equal bit for bit to cp_apply(self, I, k)."""
        if k < 0:
            raise InvalidParameterError("need k >= 0")
        while len(self._orbit) <= k:
            nxt = cp_apply(self, self._orbit[-1]) if self._orbit else np.eye(self.dim, dtype=complex)
            nxt.flags.writeable = False
            self._orbit.append(nxt)
        return self._orbit[k]

    def walk_orbit(self) -> Iterator[np.ndarray]:
        """Phi^k(I) for k = 0, 1, ...: the cached powers, then one local
        iterate that is not cached, so a long walk does not grow the cache."""
        x = self.orbit(0)
        for k in itertools.count(1):
            yield x
            x = self._orbit[k] if k < len(self._orbit) else cp_apply(self, x)

    def purity_limit(self) -> PurityResult:
        """``purity(self, PURITY_TOL)``, decided once per tuple; Q is read-only."""
        if self._purity is None:
            self._purity = purity(self, tol=PURITY_TOL)
            self._purity.q_limit.flags.writeable = False
        return self._purity

    @property
    def row_matrix(self) -> np.ndarray:
        return np.concatenate(self.matrices, axis=1)

    @property
    def defect_rank(self) -> int:
        return self.defect_decision.rank

    def row_gram(self) -> np.ndarray:
        """Sum of T_i T_i*."""
        return sum(t @ t.conj().T for t in self.matrices)


def defect_root_and_basis(psd: np.ndarray) -> tuple[np.ndarray, np.ndarray, RankDecision]:
    """Square root of a PSD defect, an orthonormal range basis, and the rank
    decision that cut it.

    The rank cutoff is applied to the eigenvalues of the squared defect,
    where floating noise sits at machine scale; cutting on the root itself
    would admit sqrt(eps)-sized noise directions. Both defects are cut by
    ``rank_decision`` at floor RANK_RTOL, which is RANK_RTOL on the
    contraction scale 1 since their eigenvalues are at most 1: the non-unit
    spectra of I - T T^* and I - T^* T coincide, so one absolute cutoff gives
    consistent ranks, and an all-noise spectrum keeps nothing. Eigenvalues
    in [-1e-12, 0) are clamped to zero; anything more negative raises
    ValueError."""
    vals, vecs = eigh_descending(psd)
    if vals.size and float(vals.min()) < -1e-12:
        raise ValueError(f"defect is not PSD: min eigenvalue {vals.min():.3e}")
    vals = np.clip(vals, 0.0, None)
    decision = rank_decision(vals, RANK_RTOL)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T, vecs[:, : decision.rank], decision


def _square_tuple(matrices: Sequence[np.ndarray]) -> tuple[np.ndarray, ...]:
    """The matrices as a complex tuple; rejects an empty tuple, matrices that
    are not square of one common size, and non-finite entries."""
    mats = tuple(np.asarray(t, dtype=complex) for t in matrices)
    if not mats:
        raise InvalidParameterError("need at least one matrix")
    shape = mats[0].shape
    for t in mats:
        if t.ndim != 2 or t.shape[0] != t.shape[1] or t.shape != shape:
            raise InvalidParameterError("all matrices must be square with equal size")
        if not np.isfinite(t).all():
            raise InvalidParameterError("matrix entries must be finite")
    return mats


def check_count(name: str, value, minimum: int) -> int:
    """An integer parameter (not a bool) that must be at least ``minimum``;
    anything else raises InvalidParameterError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise InvalidParameterError(f"need an integer {name} >= {minimum}, got {value!r}")
    return int(value)


def validate(matrices: Sequence[np.ndarray], tol: float = 1e-10) -> RowContraction:
    """Build a RowContraction, constructing defect data; rejects tuples whose
    row norm exceeds one beyond tolerance."""
    mats = _square_tuple(matrices)
    dim = mats[0].shape[0]
    gram = sum(t @ t.conj().T for t in mats)
    excess = spectral_norm(gram) - 1.0
    if excess > tol:
        raise NotARowContractionError(excess)
    row = np.concatenate(mats, axis=1)
    delta, defect_basis, decision = defect_root_and_basis(np.eye(dim) - gram)
    delta_star, defect_star_basis, star_decision = defect_root_and_basis(np.eye(len(mats) * dim) - row.conj().T @ row)
    return RowContraction(
        matrices=mats,
        n=len(mats),
        dim=dim,
        delta=delta,
        delta_star=delta_star,
        defect_basis=defect_basis,
        defect_star_basis=defect_star_basis,
        defect_decision=decision,
        defect_star_decision=star_decision,
    )


def cp_apply(rc: RowContraction, x: np.ndarray, k: int = 1) -> np.ndarray:
    """k-fold application of X -> sum_i T_i X T_i*."""
    if k < 0:
        raise InvalidParameterError("need k >= 0")
    x = np.asarray(x, dtype=complex)
    for _ in range(k):
        x = sum(t @ x @ t.conj().T for t in rc.matrices)
    return x


@dataclass
class PurityResult:
    """The limit Q = lim Phi^k(I) and how it was decided.

    ``method`` is ``"certified"`` when a Collatz-Wielandt bound proved
    rho(Phi) < 1, so Q = 0 exactly and ``k_used`` is the CP step of the
    certifying bracket; it is ``"walk"`` when Q came from iterating Phi, and
    ``k_used`` counts CP steps."""

    q_limit: np.ndarray
    is_pure: bool
    k_used: int
    converged: bool
    method: str
    _spectrum: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def q_spectrum(self) -> tuple[np.ndarray, np.ndarray, RankDecision]:
        """Q's eigenvalues (descending), eigenvectors and rank decision at
        floor Q_RANK_FLOOR, from one ``eigh``: the Wold decomposition and the
        dilation both read it. ValueError for an eigenvalue below -1e-10."""
        if self._spectrum is None:
            vals, vecs = eigh_descending(self.q_limit)
            if vals.size and float(vals[-1]) < -1e-10:
                raise ValueError(f"purity limit is not PSD: min eigenvalue {vals[-1]:.3e}")
            self._spectrum = (vals, vecs, rank_decision(vals, Q_RANK_FLOOR))
        return self._spectrum


# Margin below one that an upper Collatz-Wielandt bound on rho(Phi) must clear
# before purity treats rho(Phi) < 1 as proved; a lower bound at or above
# 1 - PURITY_GAP marks rho(Phi) = 1 and sends purity to the walk at once.
PURITY_GAP = 1e-9

# Tolerance of the one purity limit each tuple caches (``purity_limit``).
PURITY_TOL = 1e-13

# Floor of Q's rank decision: a pure tuple's walk leaves iteration-noise
# eigenvalues that a relative rule alone would count as a Cuntz part.
Q_RANK_FLOOR = 1e-10


def purity(rc: RowContraction, tol: float = 1e-10, k_max: int = 10_000) -> PurityResult:
    """The limit Q of the decreasing sequence Phi^k(I); the tuple is pure
    exactly when Q = 0.

    In finite dimension Phi^k(I) -> 0 exactly when rho(Phi) < 1. So purity
    first runs the Collatz-Wielandt bracket of ``spectral_radius`` and returns
    Q = 0 (method ``"certified"``, ``k_used`` the CP step of the bracket) as
    soon as its upper bound on rho(Phi) is at most 1 - PURITY_GAP. From
    X_0 = I the first bound is the top eigenvalue of sum T_i T_i^*, so a tuple
    with row norm below 1 - PURITY_GAP is certified in one step. Phi(X_k) = 0
    also certifies Q = 0.

    The walk (method ``"walk"``) runs only when no certificate comes: an
    iterate is not positive definite (nilpotent tuples), the lower bound
    reaches 1 - PURITY_GAP (rho(Phi) = 1), or the bracket stalls. It iterates
    Phi on the identity; with step ratio q the remaining distance to the
    limit is at most step/(1-q), so it stops once that projection drops below
    the tolerance, or after k_max steps with ``converged`` false. It keeps
    only its current iterate and bypasses ``RowContraction.orbit``: caching up
    to k_max powers would hold k_max * dim^2 * 16 bytes.

    Raises InvalidParameterError unless tol > 0 and k_max is an integer >= 1."""
    if tol <= 0:
        raise InvalidParameterError("need tol > 0")
    check_count("k_max", k_max, 1)
    for step, lo, hi in _collatz_wielandt(rc.matrices):
        if hi <= 1.0 - PURITY_GAP:
            return PurityResult(np.zeros((rc.dim, rc.dim), dtype=complex), True, step, True, "certified")
        if lo >= 1.0 - PURITY_GAP:
            break
    x = np.eye(rc.dim, dtype=complex)
    prev_step = None
    k = 0
    for k in range(1, k_max + 1):
        nxt = cp_apply(rc, x)
        step = spectral_norm(nxt - x)
        x = nxt
        ratio = 0.5 if prev_step is None or prev_step <= 0 else min(step / prev_step, 1.0 - 1e-9)
        prev_step = step
        if step / max(1.0 - ratio, 1e-9) < tol:
            return PurityResult(x, spectral_norm(x) < tol, k, True, "walk")
    return PurityResult(x, spectral_norm(x) < tol, k, False, "walk")


# Perron iteration of the Collatz-Wielandt bracket: the relative bracket
# width at which spectral_radius certifies, the CP step cap, and the
# checkpoint schedule. Each CP step is one normalized Phi product; the
# bracket (a Cholesky, an inverse and an eigvalsh, about four Phi steps at
# dim 32) is read after each of steps 1..PERRON_READ_EVERY and then after
# every PERRON_READ_EVERY-th step. Skipping reads loses nothing: Phi is
# positive, so l X <= Phi(X) <= u X gives l Phi(X) <= Phi^2(X) <= u Phi(X),
# and a later bracket is at least as tight as an earlier one. The stall rule
# stops when the width has not halved since the last bracket read at least
# PERRON_STALL_STEPS CP steps back; a diagonal pair, whose bracket never
# narrows, stops at step 16 after 9 reads. The step cap is a multiple of
# PERRON_READ_EVERY, so the last step taken is read. POWER_* are the stopping
# width and step cap of the power iteration beyond the dense cutoff.
PERRON_RTOL = 1e-13
PERRON_MAX_STEPS = 496
PERRON_STALL_STEPS = 12
PERRON_READ_EVERY = 8
POWER_RTOL = 1e-15
POWER_MAX_STEPS = 2000


def _phi(mats: tuple[np.ndarray, ...]):
    """X -> Phi(X) = sum T_i X T_i^* as one product: the row [T_1 ... T_n]
    times the stacked X T_i^*. Agrees with ``cp_apply`` to rounding, not bit
    for bit, so only the spectral code uses it."""
    row = np.concatenate(mats, axis=1)
    adjoints = np.stack([t.conj().T for t in mats])
    dim = row.shape[0]
    return lambda x: row @ (x @ adjoints).reshape(-1, dim)


def _collatz_wielandt(mats: tuple[np.ndarray, ...]) -> Iterator[tuple[int, float, float]]:
    """The best bounds (step, lo, hi) on rho(Phi) read at the checkpoints of
    the normalized power iteration X_{k+1} = Phi(X_k) / |Phi(X_k)|_F from
    X_0 = I: after each of the CP steps 1..8, then after every 8th step
    (PERRON_READ_EVERY).

    While X_k = L L^* is positive definite, the extreme eigenvalues l, u of
    L^{-1} Phi(X_k) L^{-*} bound rho(Phi): Phi(X) >= l X gives rho >= l, and
    Phi(X) <= u X gives rho <= u. The steps between reads lose nothing:
    applying the positive map Phi to l X <= Phi(X) <= u X gives
    l Phi(X) <= Phi^2(X) <= u Phi(X), so a later bracket is at least as
    tight. Yields (k, 0.0, 0.0) and stops when Phi(X_k) = 0, at any step.
    Stops without a bound when X_k is not positive definite at a read, when
    the width has not halved since the last read at least PERRON_STALL_STEPS
    steps back, or after PERRON_MAX_STEPS steps. Phi comes from ``_phi``, so
    the ``cp_apply`` and ``spectral_norm`` counts are untouched."""
    phi = _phi(mats)
    x = np.eye(mats[0].shape[0], dtype=complex)
    lo, hi = 0.0, np.inf
    widths: list[tuple[int, float]] = []  # (step, width) of each bracket read
    for step in range(1, PERRON_MAX_STEPS + 1):
        y = phi(x)
        scale = np.linalg.norm(y)
        if scale == 0.0:
            yield step, 0.0, 0.0
            return
        if step <= PERRON_READ_EVERY or step % PERRON_READ_EVERY == 0:
            try:
                linv = np.linalg.inv(np.linalg.cholesky(x))
                vals = np.linalg.eigvalsh(linv @ y @ linv.conj().T)
            except np.linalg.LinAlgError:
                return
            lo, hi = max(lo, float(vals[0])), min(hi, float(vals[-1]))
            yield step, lo, hi
            earlier = [w for k, w in widths if k <= step - PERRON_STALL_STEPS]
            if earlier and hi - lo > 0.5 * earlier[-1]:
                return
            widths.append((step, hi - lo))
        x = y / scale


def _perron_radius(mats: tuple[np.ndarray, ...]) -> float | None:
    """sqrt(rho(Phi)) once the Collatz-Wielandt bracket is within
    PERRON_RTOL, or None when it cannot certify it."""
    for _, lo, hi in _collatz_wielandt(mats):
        if hi - lo <= PERRON_RTOL * hi:
            # Bounds that cross by more than the tolerance show rounding noise
            # above it: certify nothing.
            return float(np.sqrt(0.5 * (lo + hi))) if lo - hi <= PERRON_RTOL * hi else None
    return None


def spectral_radius(matrices_or_rc) -> float:
    """Joint spectral radius of the tuple: the square root of the spectral
    radius of the CP map Phi(X) = sum T_i X T_i^*.

    The certified path iterates X_{k+1} = Phi(X_k) / |Phi(X_k)| from X_0 = I.
    While X_k = L L^* is positive definite, the extreme eigenvalues l_k, u_k of
    L^{-1} Phi(X_k) L^{-*} bracket rho(Phi) (Collatz-Wielandt: Phi(X) >= l X
    gives rho >= l, Phi(X) <= u X gives rho <= u). Every CP step is one Phi
    product; the bracket is read after each of steps 1..8 and then after
    every 8th step (PERRON_READ_EVERY), which loses nothing because a later
    bracket is at least as tight. The best bounds read so far are kept, and
    sqrt((l + u) / 2) is returned once u - l <= 1e-13 u, unless
    the bounds cross by more than that (rounding noise above the tolerance).
    If Phi(X_k) = 0, the radius is 0. For an irreducible Phi the iterates tend
    to its positive definite Perron eigenvector and the bracket closes
    geometrically; scaled coisometries close it at the first step.

    It falls back when an iterate is not positive definite (nilpotent
    tuples), or when the bracket stops narrowing within the step cap
    (reducible Phi, such as diagonal tuples, whose bracket stalls at a gap
    between the radii of invariant pieces): to the dominant eigenvalue
    magnitude of the dense dim^2 x dim^2 matrix of Phi while dim^2 <= 4096,
    and beyond that to the power iteration X_{k+1} = Phi(X_k) / tr Phi(X_k)
    from I / dim, whose traces tr Phi(X_k) tend to rho(Phi), until two agree.
    When they never agree (an imprimitive Phi, whose peripheral eigenvalues
    rho e^{2 pi i j / p} make the traces cycle), it returns the geometric mean
    of the traces, (tr Phi^K(I / dim))^{1/K} after the K = POWER_MAX_STEPS
    steps, which is exact when p divides K.

    Raises InvalidParameterError for an empty tuple, matrices that are not
    square of one size, and non-finite entries.
    """
    if isinstance(matrices_or_rc, RowContraction):
        mats = matrices_or_rc.matrices
    else:
        mats = _square_tuple(matrices_or_rc)
    radius = _perron_radius(mats)
    if radius is not None:
        return radius
    dim = mats[0].shape[0]
    if dim**2 <= 4096:
        eigs = np.linalg.eigvals(sum(np.kron(t.conj(), t) for t in mats))
        top = float(np.abs(eigs).max()) if eigs.size else 0.0
        return float(np.sqrt(top))
    # Phi maps PSD to PSD, and a PSD iterate has trace 0 only when it is 0.
    phi = _phi(mats)
    x, prev, log_sum = np.eye(dim, dtype=complex) / dim, 0.0, 0.0
    for _ in range(POWER_MAX_STEPS):
        y = phi(x)
        ratio = float(np.trace(y).real)
        if ratio <= 0.0:
            return 0.0
        if abs(ratio - prev) <= POWER_RTOL * ratio:
            return float(np.sqrt(ratio))
        x, prev, log_sum = y / ratio, ratio, log_sum + np.log(ratio)
    return float(np.sqrt(np.exp(log_sum / POWER_MAX_STEPS)))


def check_constraints(rc: RowContraction, generators: Sequence[NcPolynomial]) -> list[float]:
    """Spectral norm of each generator evaluated on the tuple."""
    return [spectral_norm(evaluate_polynomial(p, rc.matrices)) for p in generators]
