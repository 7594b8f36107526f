"""Curvature and Euler characteristic sequences, their characteristic-function
reformulations, and the commutative boundary-integral versions.

On a finite-dimensional space H every one of these sequences tends to 0 (its
numerator is at most dim H, its denominator grows without bound), so no scalar
limit is claimed: each report carries the sequence, and acceptance rests on
exact anchors and cross-method agreement. The two methods are linked through the
factorization of the characteristic function: the trace of the kernel square
on a degree slice equals the trace of (I - Theta Theta^*) there, and the
kernel-side quantity collapses to a CP-map trace increment. Theta is
lower-triangular in degree, so the degree <= m part of I - Theta Theta^*
needs Theta truncated at m only. One reader serves both curvature routes,
on the Fock space or on N_J of the commutator ideal, and never forms
Theta Theta^*: each slice trace is a sum of squared coefficient norms, and
each Euler rank is read from I - Theta Theta^* applied to the seeded Gaussian
probe block of ``charfn``, which the model basis reads too, since
I - Theta Theta^* = K K^* has rank at most dim H.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._linalg import RankDecision, rank_decision, svdvals
from .charfn import (
    _fock_probe,
    _gaussian_probe,
    assemble,
    characteristic_coefficients,
    degree_slices,
)
from .contractions import PURITY_TOL, RowContraction, check_constraints
from .errors import InvalidParameterError, PreconditionError
from .ideals import NcPolynomial, build_constrained_subspace, commutator_generators
from .words import TruncatedFock


@dataclass
class CurvatureReport:
    """A normalized trace or rank sequence, m = 1..m_max: it tends to 0 on a
    finite-dimensional space, and no scalar limit is claimed."""

    m_values: list[int]
    sequence: list[float]
    extras: dict = field(default_factory=dict)


def _geometric_denominator(n: int, m: int) -> int:
    # 1 + n + ... + n^(m-1)
    return m if n == 1 else (n**m - 1) // (n - 1)


def curvature_phi(rc: RowContraction, m_max: int) -> CurvatureReport:
    """trace[I - Phi^m(I)] over the geometric denominator, for m up to m_max.

    The kernel-slice increments trace[Phi^m(I)] - trace[Phi^(m+1)(I)] over
    n^m are attached; they are the CP-map side of the cross-method identity.
    """
    if m_max < 1:
        raise InvalidParameterError("need m_max >= 1")
    traces = [float(np.trace(rc.orbit(m)).real) for m in range(m_max + 2)]
    seq = [
        (traces[0] - traces[m]) / _geometric_denominator(rc.n, m)
        for m in range(1, m_max + 1)
    ]
    increments = [(traces[m] - traces[m + 1]) / rc.n**m for m in range(1, m_max + 1)]
    return CurvatureReport(
        m_values=list(range(1, m_max + 1)),
        sequence=seq,
        extras={"kernel_slice_increments": increments},
    )


def euler_phi(rc: RowContraction, m_max: int) -> CurvatureReport:
    """rank[I - Phi^m(I)] over the geometric denominator; each rank is the
    span ``rank_decision`` of the singular values, reported as an exact
    integer before normalization, with the decision beside it."""
    if m_max < 1:
        raise InvalidParameterError("need m_max >= 1")
    decisions = [rank_decision(svdvals(np.eye(rc.dim) - rc.orbit(m))) for m in range(1, m_max + 1)]
    ranks = [d.rank for d in decisions]
    seq = [ranks[m - 1] / _geometric_denominator(rc.n, m) for m in range(1, m_max + 1)]
    return CurvatureReport(
        m_values=list(range(1, m_max + 1)),
        sequence=seq,
        extras={"ranks": ranks, "rank_decisions": decisions},
    )


def _theta_defect_by_degree(
    rc: RowContraction, m_max: int, generators: Sequence[NcPolynomial] = ()
) -> list[tuple[int, float, RankDecision]]:
    """For m = 1..m_max: the dimension of the degree-m slice of (ambient
    tensor row defect), trace[Theta Theta^*] on it, and the rank of the
    principal degree <= m block of I - Theta Theta^*, on the Fock space, or
    on N_J with generators, from Theta at truncation m_max (at the top
    generator degree if that is higher). Theta Theta^* is never formed.

    Theta is lower-triangular in degree, so these degree <= m quantities are
    the same at every truncation >= m, and the principal block is
    I - Theta_S Theta_S^* with Theta_S the degree <= m block of Theta.
    - Slice traces: on the Fock space the degree-m rows of Theta are the
      blocks I_{n^(m-c)} (x) Theta_c, so the trace is
      sum_{c <= m} n^(m-c) ||Theta_c||_F^2; on N_J it is the sum of the
      squared degree-m row norms of the assembled Theta.
    - Euler ranks: truncated Theta is a contraction, so the principal block
      is K_S K_S^* with K_S the degree <= m rows of K, of rank at most dim H.
      For the Gaussian block Omega of ``charfn._gaussian_probe``, of width
      dim H + EULER_PROBE_OVERSAMPLE, (I - Theta_S Theta_S^*) Omega has that
      rank almost surely, the span ``rank_decision`` of its singular
      values. Omega is one block
      over the whole ambient; degree <= m reads its leading rows, the basis
      being ordered by degree."""
    top = max([m_max, *(p.degree for p in generators)])
    fock = TruncatedFock(rc.n, top)
    op = characteristic_coefficients(rc, top)
    n, tgt, src = rc.n, op.target_dim, op.source_dim
    cs = build_constrained_subspace(fock, generators) if generators else None
    omega = _gaussian_probe(rc.dim, (fock.dim if cs is None else cs.dim) * tgt)
    out = []
    if cs is None:
        thetas = degree_slices(op, fock)
        norms = [float(np.vdot(t, t).real) for t in thetas]
        for m in range(1, m_max + 1):
            slice_trace = sum(n ** (m - c) * norms[c] for c in range(m + 1))
            out.append((n**m * tgt, slice_trace, rank_decision(svdvals(_fock_probe(thetas, n, omega, m)))))
        return out
    theta = assemble(op, cs)
    row_degrees, col_degrees = np.repeat(cs.basis_degrees, tgt), np.repeat(cs.basis_degrees, src)
    row_norms = np.einsum("ij,ij->i", theta, theta.conj()).real
    for m in range(1, m_max + 1):
        lead_t, lead_s = int(np.count_nonzero(row_degrees <= m)), int(np.count_nonzero(col_degrees <= m))
        theta_s, omega_s = theta[:lead_t, :lead_s], omega[:, :lead_t]
        y = omega_s - (omega_s @ theta_s.conj()) @ theta_s.T
        out.append((cs.slice_dims[m] * tgt, float(row_norms[row_degrees == m].sum()), rank_decision(svdvals(y))))
    return out


def curvature_theta(rc: RowContraction, m_max: int) -> CurvatureReport:
    """Curvature and Euler sequences from the assembled characteristic function.

    curvature(m) = rank(defect) - trace[Theta Theta^* (P_m tensor I)] / n^m;
    the cross-check field holds the gap to the CP-map route at matched m,
    which the factorization makes a machine-precision identity. Each Euler
    rank comes with the gap of its probe decision.
    """
    if m_max < 1:
        raise InvalidParameterError("need m_max >= 1")
    seq, cross, decisions = [], [], []
    for m, (slice_dim, slice_trace, decision) in enumerate(_theta_defect_by_degree(rc, m_max), start=1):
        seq.append(rc.defect_rank - slice_trace / rc.n**m)
        # CP-map route to the same slice quantity.
        phi_side = float(np.trace(rc.orbit(m) - rc.orbit(m + 1)).real)
        cross.append(abs((slice_dim - slice_trace) - phi_side) / rc.n**m)
        decisions.append(decision)
    euler_seq = [d.rank / _geometric_denominator(rc.n, m) for m, d in enumerate(decisions, start=1)]
    return CurvatureReport(
        m_values=list(range(1, m_max + 1)),
        sequence=seq,
        extras={"cross_check_vs_phi": cross, "euler_sequence": euler_seq, "euler_decisions": decisions},
    )


@dataclass
class ArvesonReport:
    boundary: dict  # r -> (value, tail_bound)
    orbit_steps: int
    qm_sequence: list[float]
    euler_sequence: list[float]
    euler_decisions: list[RankDecision]
    slice_trace_gap: float
    deviations: dict


# Stopping rule of the boundary series; the step cap is the one ``purity`` uses.
BOUNDARY_TAIL_TOL = 1e-15
BOUNDARY_MAX_STEPS = 10_000


def _boundary_series(rc: RowContraction, r_values: Sequence[float]) -> tuple[dict, int]:
    """Arveson's boundary integral at each radius r as its exact series, with
    the tail bound, and the number M of CP steps walked. For a commuting tuple
    the resolvent in the integrand expands in multi-indices, and on the sphere
    int z^a conj(z^b) d sigma = delta_ab a! (n-1)! / (n-1+|a|)!, which leaves
    (1 - r^2) sum_m r^(2m) (t_m - t_{m+1}) / C(n-1+m, m), t_m = trace Phi^m(I).
    The first M terms are summed; the rest is non-negative and telescopes, so
    it is at most (1 - r^2) r^(2M) (t_M - trace Q), Q = lim Phi^k(I): 0 on a
    pure tuple, else the converged ``purity_limit()`` less dim PURITY_TOL, its
    error (t_M if it did not converge). The walk stops once that is at most
    BOUNDARY_TAIL_TOL at every radius, or after BOUNDARY_MAX_STEPS steps; it
    reads ``walk_orbit``, so it grows no cache."""
    radii = np.array(r_values, dtype=float)
    scale = 1.0 - radii * radii
    pur = rc.purity_limit()
    floor = float(np.trace(pur.q_limit).real) - rc.dim * PURITY_TOL if pur.converged and not pur.is_pure else 0.0
    walk = rc.walk_orbit()
    traces = [float(np.trace(next(walk)).real)]
    while (len(traces) <= BOUNDARY_MAX_STEPS
           and float((scale * radii ** (2 * len(traces) - 2)).max()) * (traces[-1] - floor) > BOUNDARY_TAIL_TOL):
        traces.append(float(np.trace(next(walk)).real))
    steps = len(traces) - 1
    t = np.array(traces)
    m = np.arange(steps)
    # 1 / C(n-1+m, m) from the ratios m / (n-1+m): it underflows, never overflows.
    inverse_binomials = np.cumprod(np.concatenate(([1.0], m[1:] / (rc.n - 1.0 + m[1:]))))[:steps]
    values = scale * (radii[:, None] ** (2 * m) @ ((t[:-1] - t[1:]) * inverse_binomials))
    tails = scale * radii ** (2 * steps) * (traces[-1] - floor)
    boundary = {float(r): (float(v), float(b)) for r, v, b in zip(radii, values, tails)}
    return boundary, steps


def arveson_curvature(
    rc: RowContraction,
    m_max: int = 8,
    r_values: Sequence[float] = (0.9, 0.99, 0.999),
) -> ArvesonReport:
    """Commutative curvature and Euler estimates, three ways.

    (a) the boundary integral of (1 - r^2) trace[defect-root resolvent pair]
        per radial parameter, as the exact orbit series ``_boundary_series``;
    (b) the slice-trace formula (n-1)! trace[(I - Theta Theta^*)(Q_m tensor I)]
        / m^(n-1) (the n^m printed in the source normalization degenerates;
        the proof's m^(n-1) is used);
    (c) the Euler rank formula n! rank[(I - Theta Theta^*)(Q_<=m tensor I)] / m^n.

    (b) and (c) read the constrained characteristic function on N_J of the
    commutator ideal, the symmetric tensors, up to degree m_max; Q_m is the
    projection onto its degree-m slice. The Poisson kernel of a commuting
    tuple has range in N_J tensor D, so the slice trace of I - Theta Theta^*
    is trace[Phi^m(I) - Phi^(m+1)(I)] exactly; ``slice_trace_gap`` is the
    largest gap. Mutual deviations are reported; no scalar limit is claimed.
    Radial parameters must lie in (0, 1).
    """
    if m_max < 1:
        raise InvalidParameterError(f"need m_max >= 1, got {m_max}")
    if not r_values:
        raise InvalidParameterError("need at least one radial parameter")
    if not all(0.0 < r < 1.0 for r in r_values):
        raise InvalidParameterError(f"radial parameters must lie in (0, 1), got {tuple(r_values)}")
    if max(check_constraints(rc, commutator_generators(rc.n)), default=0.0) > 1e-10:
        raise PreconditionError("tuple is not commuting to 1e-10")

    # (b), (c) on N_J of the commutator ideal.
    qm_seq, euler_seq, decisions, gaps = [], [], [], []
    for m, (slice_dim, slice_trace, decision) in enumerate(
            _theta_defect_by_degree(rc, m_max, commutator_generators(rc.n)), start=1):
        qm_seq.append(math.factorial(rc.n - 1) * (slice_dim - slice_trace) / m ** (rc.n - 1))
        euler_seq.append(math.factorial(rc.n) * decision.rank / m**rc.n)
        decisions.append(decision)
        gaps.append(abs(slice_dim - slice_trace - float(np.trace(rc.orbit(m) - rc.orbit(m + 1)).real)))

    # (a) after (b), so the series reads the orbit powers they cached.
    boundary, steps = _boundary_series(rc, r_values)
    deviations = {
        "boundary_vs_qm": abs(boundary[float(r_values[-1])][0] - qm_seq[-1]),
        "boundary_r_spread": max(v for v, _ in boundary.values()) - min(v for v, _ in boundary.values()),
    }
    return ArvesonReport(
        boundary=boundary,
        orbit_steps=steps,
        qm_sequence=qm_seq,
        euler_sequence=euler_seq,
        euler_decisions=decisions,
        slice_trace_gap=max(gaps),
        deviations=deviations,
    )
