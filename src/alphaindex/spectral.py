"""A_alpha matrices, the alpha-index, Perron vectors, bounds, and certificates.

The matrix of interest is alpha*D + (1-alpha)*A.  For a connected graph it
is irreducible and nonnegative, so its largest eigenvalue is the Perron
root with a unique positive eigenvector.

Two solvers compute it.  :func:`alpha_index` is power iteration on
P = A_alpha + I (the shift makes P primitive even at alpha = 0 on
bipartite graphs, whose adjacency is periodic), evaluated by repeated
squaring: after k normalised squarings the row sums of P are the
2^k-th power iterate from the all-ones vector.  Rayleigh quotients and
residuals are taken on A_alpha itself, and it returns the Perron vector
too.  Squaring doubles the number of power steps each round, so a small
spectral gap costs only its logarithm in squarings and the plain
iteration's stall on near-degenerate top pairs (clustered degrees as
alpha -> 1) needs no detector and no refinement; the products of
nonnegative matrices involve no cancellation.  :func:`perron_pairs`
serves campaigns: it stacks the matrices of one order and makes one
LAPACK ``eigh`` call per order, and :func:`alpha_indices` and
:func:`lambda_maxes` (per component) take their values from it.  Each
batched eigenpair is certified (residual within the power-iteration
tolerance, unit-sum top eigenvector strictly positive, which on an
irreducible nonnegative matrix singles out the Perron vector); a graph
that fails is re-solved by power iteration and reported to the caller,
who flags it.  Power iteration stays the
independent cross-check of the batched values, and a cyclic Jacobi
full-spectrum solver of a third algorithm class serves as the test
oracle.  Components, and the connectivity test behind
:class:`DisconnectedGraphError`, come from the breadth-first reach of
:mod:`alphaindex.connectivity`, the walk that the deletion recognizer
runs on; the chord recognizer's block walk stays separate from both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .connectivity import components, is_connected
from .graphs import Graph, GraphError, iter_bits

POWER_TOL = 1e-12
POWER_MAX_ITERATIONS = 64  # squarings: 2^64 power steps
JACOBI_OFFDIAG_NORM = 1e-13
COLUMN_SUM_CROSS_TOL = 1e-9


class SpectralError(RuntimeError):
    pass


class DisconnectedGraphError(ValueError):
    """Perron guarantees need a connected graph; split into components first."""


class ConvergenceError(SpectralError):
    """Power iteration hit its squaring cap; carries the last residual for diagnosis."""

    def __init__(self, residual: float, iterations: int):
        super().__init__(
            f"power iteration stalled at residual {residual:.3e} "
            f"after {iterations} squarings"
        )
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True, eq=False)
class AlphaMatrix:
    alpha: float
    entries: np.ndarray


@dataclass(frozen=True, eq=False)
class SpectralResult:
    alpha: float
    rho: float
    perron: np.ndarray  # positive, unit sum
    residual: float
    iterations: int


def alpha_matrix(g: Graph, alpha: float) -> AlphaMatrix:
    """alpha*D + (1-alpha)*A; row sums equal the degrees."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    n = g.n
    entries = np.zeros((n, n))
    for v in range(n):
        entries[v, v] = alpha * g.degree(v)
        for u in iter_bits(g.rows[v]):
            entries[v, u] = 1.0 - alpha
    return AlphaMatrix(alpha, entries)


def alpha_index(
    g: Graph,
    alpha: float,
    tol: float = POWER_TOL,
    max_iterations: int = POWER_MAX_ITERATIONS,
) -> SpectralResult:
    """Largest eigenvalue of A_alpha with its unit-sum Perron vector.

    Relative residual tolerance ``tol`` is measured as
    max|A_alpha x - rho x| <= tol * max(rho, 1).  ``iterations`` in the
    result counts squarings, at most ``max_iterations``.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1) for the Perron pair, got {alpha}")
    if not is_connected(g):
        raise DisconnectedGraphError("alpha_index needs a connected graph")
    a = alpha_matrix(g, alpha).entries
    p = a + np.eye(g.n)  # primitive for every alpha in [0, 1)
    for iteration in range(max_iterations + 1):
        # x is the 2^iteration-th power iterate from the all-ones vector.
        x = p.sum(axis=1)
        x /= x.sum()
        ax = a @ x
        rho = float(x @ ax) / float(x @ x)
        residual = float(np.max(np.abs(ax - rho * x)))
        if residual <= tol * max(rho, 1.0) and x.min() > 0.0:
            return SpectralResult(alpha, rho, x, residual, iteration)
        p = p @ p
        p /= p.max()
    raise ConvergenceError(residual, max_iterations)


def alpha_indices(
    graphs: Sequence[Graph],
    alpha: float,
    fallbacks: list[int] | None = None,
) -> list[float]:
    """Alpha-indices of many graphs: the rho column of :func:`perron_pairs`."""
    return [rho for rho, _ in perron_pairs(graphs, alpha, fallbacks)]


def perron_pairs(
    graphs: Sequence[Graph],
    alpha: float,
    fallbacks: list[int] | None = None,
) -> list[tuple[float, np.ndarray]]:
    """Perron pairs ``(rho, x)`` of many graphs, one stacked ``eigh`` call
    per order; ``x`` is the unit-sum Perron vector.

    Every eigenpair is certified before it is used, vectorised over the
    order group: the unit-sum top eigenvector must be strictly positive
    (on an irreducible nonnegative matrix only the Perron vector is) and
    must pass the residual test of :func:`alpha_index`.  A graph that
    fails is re-solved by :func:`alpha_index`; its input position is
    appended to ``fallbacks`` when a list is given, so a caller can report
    that the slow path ran.  Pairs come back in input order.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1) for the Perron pair, got {alpha}")
    by_order: dict[int, list[int]] = {}
    for i, g in enumerate(graphs):
        if not is_connected(g):
            raise DisconnectedGraphError("perron_pairs needs connected graphs")
        by_order.setdefault(g.n, []).append(i)
    out: list = [None] * len(graphs)
    for positions in by_order.values():
        a = np.stack([alpha_matrix(graphs[i], alpha).entries for i in positions])
        w, v = np.linalg.eigh(a)
        rho = w[:, -1]
        with np.errstate(divide="ignore", invalid="ignore"):  # a zero-sum vector fails below
            x = v[:, :, -1]
            x = x / x.sum(axis=1, keepdims=True)  # unit sum; also orients the sign
            residual = np.abs(np.einsum("kij,kj->ki", a, x) - rho[:, None] * x).max(axis=1)
            certified = (x.min(axis=1) > 0.0) & (residual <= POWER_TOL * np.maximum(rho, 1.0))
        for i, value, vector, ok in zip(positions, rho.tolist(), x, certified.tolist()):
            if not ok:
                result = alpha_index(graphs[i], alpha)
                value, vector = result.rho, result.perron
                if fallbacks is not None:
                    fallbacks.append(i)
            out[i] = (value, vector)
    return out


def lambda_max(g: Graph, alpha: float) -> float:
    """Largest A_alpha eigenvalue of a possibly disconnected graph."""
    best = 0.0
    for comp in components(g):
        rho = alpha_index(induced_subgraph(g, comp), alpha).rho
        if rho > best:
            best = rho
    return best


def lambda_maxes(
    graphs: Sequence[Graph],
    alpha: float,
    fallbacks: list[int] | None = None,
) -> list[float]:
    """:func:`lambda_max` of many possibly disconnected graphs.

    Every graph is split into its components, which are solved together by
    :func:`alpha_indices`; each graph takes the largest of its components'
    values.  The input position of a graph is appended to ``fallbacks``
    once for every component of it that fell back to power iteration.
    """
    parts: list[Graph] = []
    owner: list[int] = []
    for i, g in enumerate(graphs):
        for comp in components(g):
            parts.append(g if len(comp) == g.n else induced_subgraph(g, comp))
            owner.append(i)
    failed: list[int] = []
    out = [0.0] * len(graphs)
    for i, rho in zip(owner, alpha_indices(parts, alpha, failed)):
        if rho > out[i]:
            out[i] = rho
    if fallbacks is not None:
        fallbacks.extend(owner[k] for k in failed)
    return out


def induced_subgraph(g: Graph, vertices: list[int]) -> Graph:
    index = {v: i for i, v in enumerate(vertices)}
    edges = [
        (index[u], index[v])
        for u, v in g.edges()
        if u in index and v in index
    ]
    return Graph.from_edges(len(vertices), edges)


def jacobi_eigenvalues(matrix: np.ndarray, tol: float = JACOBI_OFFDIAG_NORM) -> np.ndarray:
    """All eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps until the off-diagonal Frobenius norm drops below ``tol``.
    Used as an independent oracle against power iteration.
    """
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    if n == 1:
        return a[0, :1].copy()
    for _ in range(100):
        offdiag = a - np.diag(np.diag(a))
        off = float(np.sqrt(np.sum(offdiag**2)))
        if off <= tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 0.1 * tol / (n * n):
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + np.hypot(1.0, tau))
                else:
                    t = -1.0 / (-tau + np.hypot(1.0, tau))
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                rot = np.array([[c, s], [-s, c]])
                a[[p, q], :] = rot.T @ a[[p, q], :]
                a[:, [p, q]] = a[:, [p, q]] @ rot
    else:
        raise SpectralError("Jacobi sweep limit reached before convergence")
    return np.sort(np.diag(a))


def closed_form_complete_bipartite(a: int, b: int, alpha: float) -> float:
    """Largest A_alpha eigenvalue of K_{a,b} in closed form."""
    if not (a >= b >= 1):
        raise ValueError("complete bipartite closed form needs a >= b >= 1")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    s = a + b
    return float(0.5 * (alpha * s + np.sqrt((alpha * s) ** 2 + 4 * a * b * (1 - 2 * alpha))))


def upper_bound_degree_average(g: Graph, alpha: float) -> float:
    """max_u of alpha*d(u) + (1-alpha)/d(u) * sum of neighbour degrees."""
    degs = g.degrees()
    if min(degs) == 0:
        raise GraphError("degree-average bound needs no isolated vertices")
    best = -np.inf
    for u in range(g.n):
        s = sum(degs[v] for v in iter_bits(g.rows[u]))
        value = alpha * degs[u] + (1.0 - alpha) * s / degs[u]
        if value > best:
            best = value
    return float(best)


def lower_bound_max_degree(g: Graph, alpha: float) -> float:
    """alpha*(Delta+1) below alpha=1/2, alpha*Delta + (1-alpha)^2/alpha above."""
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    delta = max(g.degrees())
    if alpha < 0.5:
        return alpha * (delta + 1)
    return alpha * delta + (1.0 - alpha) ** 2 / alpha


@dataclass(frozen=True)
class CertificateColumnSums:
    variant: str  # "order" | "size"
    alpha: float
    parameter: int  # n for the order variant, m for the size variant
    column_sums: tuple[float, ...]


def column_sum_certificate(g: Graph, alpha: float, variant: str) -> CertificateColumnSums:
    """Column sums of the proof matrix B, by closed expansion.

    order: B = A_alpha^2 - alpha*n*A_alpha + 2(2alpha-1)(n-2) I
    size:  B = 2 A_alpha^2 - (m+4)*alpha*A_alpha + 2(2alpha-1)*m I

    Since column sums of A_alpha are the degrees and c_u(A_alpha^2) =
    alpha*d(u)^2 + (1-alpha) * sum_{uv in E} d(v), the order variant
    collapses to

        c_u = alpha*d(u)^2 + (1-alpha)*S(u) - alpha*n*d(u) + 2(2alpha-1)(n-2)

    and the size variant to its doubled analogue with -(m+4)*alpha*d(u)
    + 2(2alpha-1)*m.  The expansion is cross-checked against the literal
    matrix column sums; on K_{2,n-2} every c_u vanishes identically,
    which is the equality case of the order claim.
    """
    if variant not in ("order", "size"):
        raise ValueError(f"unknown certificate variant {variant!r}")
    degs = g.degrees()
    n, m = g.n, g.m
    sums = []
    for u in range(n):
        s = sum(degs[v] for v in iter_bits(g.rows[u]))
        if variant == "order":
            c = (
                alpha * degs[u] ** 2
                + (1.0 - alpha) * s
                - alpha * n * degs[u]
                + 2.0 * (2.0 * alpha - 1.0) * (n - 2)
            )
        else:
            c = (
                2.0 * alpha * degs[u] ** 2
                + 2.0 * (1.0 - alpha) * s
                - (m + 4) * alpha * degs[u]
                + 2.0 * (2.0 * alpha - 1.0) * m
            )
        sums.append(c)
    a = alpha_matrix(g, alpha).entries
    if variant == "order":
        b = a @ a - alpha * n * a + 2.0 * (2.0 * alpha - 1.0) * (n - 2) * np.eye(n)
        parameter = n
    else:
        b = 2.0 * (a @ a) - (m + 4) * alpha * a + 2.0 * (2.0 * alpha - 1.0) * m * np.eye(n)
        parameter = m
    literal = b.sum(axis=0)
    if np.max(np.abs(literal - np.array(sums))) > COLUMN_SUM_CROSS_TOL:
        raise SpectralError("column-sum expansion disagrees with the literal matrix")
    return CertificateColumnSums(variant, alpha, parameter, tuple(sums))


def perron_symmetry_check(g: Graph, orbits, alpha: float, tol: float = 1e-9) -> bool:
    """Whether Perron coordinates agree within each orbit block."""
    perron = alpha_index(g, alpha).perron
    for block in orbits.blocks:
        values = [perron[v] for v in block]
        if max(values) - min(values) > tol:
            return False
    return True
