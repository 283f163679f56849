"""A_alpha matrices, the alpha-index, Perron vectors, bounds, and certificates.

The matrix of interest is alpha*D + (1-alpha)*A.  For a connected graph it
is irreducible and nonnegative, so its largest eigenvalue is the Perron
root with a unique positive eigenvector.  Every A_alpha is formed by one
array expression from an adjacency stack, the 0/1 matrices of graphs of
one order unpacked from their bit rows in one numpy step; a single
graph's :func:`alpha_matrix` is the stack of one.  The degree bounds read
d = A 1 and S = A d from the same stack.

Two solvers compute the Perron pair.  :func:`alpha_indices` is power
iteration on P = A_alpha + I (the shift makes P primitive even at
alpha = 0 on bipartite graphs, whose adjacency is periodic), evaluated by
repeated squaring: after k normalised squarings the row sums of P are the
2^k-th power iterate from the all-ones vector.  Rayleigh quotients and
residuals are taken on A_alpha itself, and it returns the Perron vector
too.  Squaring doubles the number of power steps each round, so a small
spectral gap costs only its logarithm in squarings and the plain
iteration's stall on near-degenerate top pairs (clustered degrees as
alpha -> 1) needs no detector and no refinement; the products of
nonnegative matrices involve no cancellation.  It squares the cases of one
order as one stack, each case reading its own slice by ``matmul``, so a
case gives the same bits alone or stacked; :func:`alpha_index` is the one
case.  :func:`perron_pairs` serves campaigns: it builds one adjacency
stack per order and makes one LAPACK ``eigh`` call per run of that
order's alphas, a run stacking as many alphas' matrices as fit in
``_STACK_ENTRIES`` (so small orders pay numpy's per-call cost once, while
a large order keeps one alpha per call and the memory of one), and
:func:`lambda_maxes` (per component) takes its values from it.  Each
batched eigenpair is certified (residual within the power-iteration
tolerance, unit-sum top eigenvector positive up to that tolerance, which
on an irreducible nonnegative matrix singles out the Perron vector); the
graphs that fail are re-solved by power iteration, in one call per run,
and their :class:`Perron` pairs carry ``fallback`` so that the caller can
flag them.  Campaigns solve through :func:`perron_pairs`,
and power iteration stays the independent cross-check of the batched
values: it confirms the values a verdict rests on, all those of one
theorem order or size (or of one lemma target) in one call, and
:func:`perron_symmetry_check` re-tests a block whose :func:`block_spread`
on a batched vector is too wide, since that vector is accurate only to
about residual / spectral gap.  It also serves the ``rho`` and ``bounds``
commands.  Components, and the connectivity test
behind :class:`DisconnectedGraphError`, come from the breadth-first reach
of :mod:`alphaindex.connectivity`, the walk that the deletion recognizer
runs on; the chord recognizer's block walk stays separate from both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .connectivity import components, is_connected
from .graphs import Graph, GraphError, iter_bits

POWER_TOL = 1e-12
POWER_MAX_ITERATIONS = 64  # squarings: 2^64 power steps
COLUMN_SUM_CROSS_TOL = 1e-9
SYMMETRY_TOL = 1e-9

# At most this many entries (k n^2 over the k matrices) in one perron_pairs
# stack.  Merging an order's alphas into one eigh call saves numpy's
# per-call cost, which dominates small stacks; stacking every alpha of a
# large order at once was no faster and raised the theorem1.4 campaign's
# peak RSS by 4.3%, so a large order keeps one alpha per stack.
_STACK_ENTRIES = 4096


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
class SpectralResult:
    alpha: float
    rho: float
    perron: np.ndarray  # positive, unit sum
    residual: float
    iterations: int


class Perron(NamedTuple):
    """A certified Perron pair; ``fallback`` marks one re-solved by power
    iteration because the batched eigenpair failed its certificate."""

    rho: float
    x: np.ndarray  # unit sum
    fallback: bool


def adjacency_stack(graphs: Sequence[Graph]) -> np.ndarray:
    """The 0/1 adjacency matrices of graphs of one order, stacked as floats.

    Each bit row is read as little-endian bytes, so rows of any width (family
    texts reach 1,000 vertices) unpack in one numpy step.
    """
    n = graphs[0].n
    if any(g.n != n for g in graphs):
        raise ValueError("an adjacency stack needs graphs of one order")
    width = (n + 7) // 8
    data = b"".join(row.to_bytes(width, "little") for g in graphs for row in g.rows)
    packed = np.frombuffer(data, np.uint8)
    bits = np.unpackbits(packed, bitorder="little").reshape(len(graphs), n, 8 * width)
    return bits[:, :, :n].astype(float)


def _alpha_stack(
    adj: np.ndarray, degrees: np.ndarray, alpha: float | Sequence[float] | np.ndarray,
) -> np.ndarray:
    """alpha*D + (1-alpha)*A as one stack: (1-alpha) off the diagonal where
    A has an edge, alpha*d(v) on it.  ``alpha`` broadcasts against the
    matrix axis of ``adj``: one value, or one per matrix (shape (k,)), gives
    k matrices; a column of r values (shape (r, 1)) gives r*k, alpha-major,
    formed directly from the one adjacency stack."""
    alpha = np.asarray(alpha, float)
    n = adj.shape[1]
    a = ((1.0 - alpha)[..., None, None] * adj).reshape(-1, n, n)
    a.reshape(len(a), -1)[:, :: n + 1] = (alpha[..., None] * degrees).reshape(-1, n)  # the diagonals
    return a


def alpha_matrix(g: Graph, alpha: float) -> np.ndarray:
    """alpha*D + (1-alpha)*A; row sums equal the degrees."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    adj = adjacency_stack([g])
    return _alpha_stack(adj, adj.sum(axis=2), alpha)[0]


def alpha_index(g: Graph, alpha: float) -> SpectralResult:
    """Largest eigenvalue of A_alpha with its unit-sum Perron vector: the
    :func:`alpha_indices` of the one case ``(g, alpha)``."""
    return alpha_indices([(g, alpha)])[0]


def alpha_indices(cases: Sequence[tuple[Graph, float]]) -> list[SpectralResult]:
    """Power iteration by squaring on many ``(graph, alpha)`` cases, one
    :class:`SpectralResult` each, in input order.

    Every alpha is range-checked and every graph tested for connectivity
    before any solve.  The cases of one order are squared together as one
    stack of P = A_alpha + I.  A case passes when max|A_alpha x - rho x| <=
    POWER_TOL * max(rho, 1) and x is positive, and it leaves the stack on
    that squaring; the stack is compacted only on a squaring where some
    case passes.  ``iterations`` counts squarings, at most
    ``POWER_MAX_ITERATIONS``; a stack with a case left after the last one
    raises :class:`ConvergenceError` with the largest residual of such a
    case.  Each case's scalars are read by ``matmul`` on its own slice and
    its row sums along the last axis, so a case comes out bit for bit as it
    does alone, whatever else shares its stack.
    """
    cases = list(cases)
    by_order: dict[int, list[int]] = {}
    for i, (g, alpha) in enumerate(cases):
        if not 0.0 <= alpha < 1.0:
            raise ValueError(f"alpha must lie in [0, 1) for the Perron pair, got {alpha}")
        if not is_connected(g):
            raise DisconnectedGraphError("alpha_index needs a connected graph")
        by_order.setdefault(g.n, []).append(i)
    out: list = [None] * len(cases)
    for live in by_order.values():
        adj = adjacency_stack([cases[i][0] for i in live])
        a = _alpha_stack(adj, adj.sum(axis=2), [cases[i][1] for i in live])
        p = a + np.eye(adj.shape[1])  # primitive for every alpha in [0, 1)
        for iteration in range(POWER_MAX_ITERATIONS + 1):
            # x[j] is the 2^iteration-th power iterate from the all-ones vector.
            x = p.sum(axis=2)
            x /= x.sum(axis=1, keepdims=True)
            column, row = x[:, :, None], x[:, None, :]
            ax = a @ column
            rho = ((row @ ax) / (row @ column))[:, 0, 0]
            residual = np.abs(ax[:, :, 0] - rho[:, None] * x).max(axis=1)
            done = (residual <= POWER_TOL * np.maximum(rho, 1.0)) & (x.min(axis=1) > 0.0)
            if done.any():
                for j in np.flatnonzero(done).tolist():
                    i = live[j]
                    out[i] = SpectralResult(
                        cases[i][1], float(rho[j]), x[j], float(residual[j]), iteration,
                    )
                if done.all():
                    break
                left = np.flatnonzero(~done)
                live = [live[j] for j in left.tolist()]
                a, p = a[left], p[left]
            p = p @ p
            p /= p.max(axis=(1, 2), keepdims=True)
        else:
            raise ConvergenceError(float(residual[~done].max()), POWER_MAX_ITERATIONS)
    return out


def perron_pairs(graphs: Sequence[Graph], alphas: Sequence[float]) -> list[list[Perron]]:
    """:class:`Perron` pairs of many graphs at each of ``alphas``: one list
    per alpha, in input order; ``x`` is the unit-sum Perron vector.

    The graphs are checked for connectivity once, and the adjacency stack of
    each order is built once and serves every alpha.  The alphas of an
    order are solved in runs: the A_alpha matrices of a run's alphas form
    one stack, with one ``eigh`` call and one certification each.  A run
    takes as many alphas as keep its stack within ``_STACK_ENTRIES``
    entries (k n^2 per alpha for k graphs of order n), and at least one.
    Every alpha is range-checked before any solve.

    Every eigenpair is certified before it is used, vectorised over the
    stack: it must pass the residual test of :func:`alpha_index`, and the
    unit-sum top eigenvector must be positive (on an irreducible
    nonnegative matrix only the Perron vector is).  Positivity is tested
    against ``-POWER_TOL``, the residual test's own tolerance: ``eigh``
    resolves eigenvector entries only to about machine epsilon, so a true
    entry of 1e-19 (far vertices as alpha -> 1) can come back as -1e-16,
    and a strict ``> 0`` would send such a graph to power iteration for a
    rounding error.  Power iteration keeps the strict test, since its
    products of nonnegative matrices cannot round below zero.  The pairs of
    a run that fail are re-solved in one :func:`alpha_indices` call and
    have ``fallback`` set.  Each matrix's eigenpair and certificate depend
    on no other matrix of its stack, so a pair comes out bit for bit the
    same whichever alphas share its run.
    """
    alphas = list(alphas)
    for alpha in alphas:
        if not 0.0 <= alpha < 1.0:
            raise ValueError(f"alpha must lie in [0, 1) for the Perron pair, got {alpha}")
    by_order: dict[int, list[int]] = {}
    for i, g in enumerate(graphs):
        if not is_connected(g):
            raise DisconnectedGraphError("perron_pairs needs connected graphs")
        by_order.setdefault(g.n, []).append(i)
    out: list[list] = [[None] * len(graphs) for _ in alphas]
    for positions in by_order.values():
        adj = adjacency_stack([graphs[i] for i in positions])
        degrees = adj.sum(axis=2)
        k, n = len(positions), adj.shape[1]
        step = max(1, _STACK_ENTRIES // (k * n * n))
        for start in range(0, len(alphas), step):
            run = alphas[start:start + step]
            a = _alpha_stack(adj, degrees, np.reshape(run, (-1, 1)))
            w, v = np.linalg.eigh(a)
            rho = w[:, -1]
            with np.errstate(divide="ignore", invalid="ignore"):  # a zero-sum vector fails below
                x = v[:, :, -1]
                x = x / x.sum(axis=1, keepdims=True)  # unit sum; also orients the sign
                residual = np.abs(np.einsum("kij,kj->ki", a, x) - rho[:, None] * x).max(axis=1)
                tol = POWER_TOL * np.maximum(rho, 1.0)
                certified = (x.min(axis=1) >= -POWER_TOL) & (residual <= tol)
            del a, v  # free the run's stack before its fallbacks and the next run
            certified = certified.tolist()
            cells = [(pairs, alpha, i) for pairs, alpha in zip(out[start:], run) for i in positions]
            failed = [(graphs[i], alpha) for (_, alpha, i), ok in zip(cells, certified) if not ok]
            redone = iter(alpha_indices(failed) if failed else ())
            for (pairs, _, i), value, vector, ok in zip(cells, rho.tolist(), x, certified):
                if not ok:
                    result = next(redone)
                    value, vector = result.rho, result.perron
                pairs[i] = Perron(value, vector, not ok)
    return out


def lambda_max(g: Graph, alpha: float) -> float:
    """Largest A_alpha eigenvalue of a possibly disconnected graph."""
    best = 0.0
    for comp in components(g):
        rho = alpha_index(induced_subgraph(g, comp), alpha).rho
        if rho > best:
            best = rho
    return best


def lambda_maxes(graphs: Sequence[Graph], alpha: float) -> list[tuple[float, int]]:
    """:func:`lambda_max` of many possibly disconnected graphs, each with
    the number of its components that fell back to power iteration.

    Every graph is split into its components, which are solved together by
    :func:`perron_pairs`; each graph takes the largest of its components'
    values.
    """
    parts: list[Graph] = []
    owner: list[int] = []
    for i, g in enumerate(graphs):
        for comp in components(g):
            parts.append(g if len(comp) == g.n else induced_subgraph(g, comp))
            owner.append(i)
    best = [0.0] * len(graphs)
    fallbacks = [0] * len(graphs)
    (pairs,) = perron_pairs(parts, [alpha])
    for i, pair in zip(owner, pairs):
        best[i] = max(best[i], pair.rho)
        fallbacks[i] += pair.fallback
    return list(zip(best, fallbacks))


def induced_subgraph(g: Graph, vertices: list[int]) -> Graph:
    index = {v: i for i, v in enumerate(vertices)}
    edges = [
        (index[u], index[v])
        for u, v in g.edges()
        if u in index and v in index
    ]
    return Graph.from_edges(len(vertices), edges)


def closed_form_complete_bipartite(a: int, b: int, alpha: float) -> float:
    """Largest A_alpha eigenvalue of K_{a,b} in closed form."""
    if not (a >= b >= 1):
        raise ValueError("complete bipartite closed form needs a >= b >= 1")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    # The discriminant (alpha (a+b))^2 + 4ab (1 - 2 alpha), written as a sum
    # of two nonnegative terms: the textbook form cancels catastrophically
    # near alpha = 1 when a = b.
    disc = (alpha * (a - b)) ** 2 + 4 * a * b * (1 - alpha) ** 2
    return float(0.5 * (alpha * (a + b) + np.sqrt(disc)))


def upper_bounds_degree_average(adj: np.ndarray, alpha: float) -> np.ndarray:
    """max_u of alpha*d(u) + (1-alpha)*S(u)/d(u) for each graph of an
    adjacency stack, where d = A 1 and S = A d (the neighbour degree sums)."""
    d = adj.sum(axis=2)
    if not d.all():
        raise GraphError("degree-average bound needs no isolated vertices")
    s = np.einsum("kij,kj->ki", adj, d)
    return (alpha * d + (1.0 - alpha) * s / d).max(axis=1)


def lower_bounds_max_degree(adj: np.ndarray, alpha: float) -> np.ndarray:
    """alpha*(Delta+1) below alpha=1/2, alpha*Delta + (1-alpha)^2/alpha
    above, for each graph of an adjacency stack."""
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    delta = adj.sum(axis=2).max(axis=1)
    if alpha < 0.5:
        return alpha * (delta + 1)
    return alpha * delta + (1.0 - alpha) ** 2 / alpha


def upper_bound_degree_average(g: Graph, alpha: float) -> float:
    """:func:`upper_bounds_degree_average` of one graph."""
    return float(upper_bounds_degree_average(adjacency_stack([g]), alpha)[0])


def lower_bound_max_degree(g: Graph, alpha: float) -> float:
    """:func:`lower_bounds_max_degree` of one graph."""
    return float(lower_bounds_max_degree(adjacency_stack([g]), alpha)[0])


def column_sum_certificate(g: Graph, alpha: float, variant: str) -> tuple[float, ...]:
    """Column sums of the proof matrix B, by closed expansion.

    Both variants are B = p A_alpha^2 - q alpha A_alpha + 2(2alpha-1) r I,
    with (p, q, r) = (1, n, n-2) for order and (2, m+4, m) for size.
    Since column sums of A_alpha are the degrees and c_u(A_alpha^2) =
    alpha*d(u)^2 + (1-alpha)*S(u), where S(u) = sum_{uv in E} d(v),

        c_u = p (alpha*d(u)^2 + (1-alpha)*S(u)) - q*alpha*d(u) + 2(2alpha-1) r.

    The expansion is cross-checked against the literal matrix column sums;
    on K_{2,n-2} every order c_u vanishes identically, which is the
    equality case of the order claim.
    """
    if variant == "order":
        p, q, r = 1, g.n, g.n - 2
    elif variant == "size":
        p, q, r = 2, g.m + 4, g.m
    else:
        raise ValueError(f"unknown certificate variant {variant!r}")
    degs = g.degrees()
    shift = 2.0 * (2.0 * alpha - 1.0) * r
    sums = tuple(
        p * (alpha * degs[u] ** 2 + (1.0 - alpha) * sum(degs[v] for v in iter_bits(g.rows[u])))
        - q * alpha * degs[u]
        + shift
        for u in range(g.n)
    )
    a = alpha_matrix(g, alpha)
    literal = (p * (a @ a) - q * alpha * a + shift * np.eye(g.n)).sum(axis=0)
    if np.max(np.abs(literal - np.array(sums))) > COLUMN_SUM_CROSS_TOL:
        raise SpectralError("column-sum expansion disagrees with the literal matrix")
    return sums


def block_spread(x: np.ndarray, blocks: Sequence[Sequence[int]]) -> float:
    """The largest difference between two entries of ``x`` in one block."""
    return max(float(np.ptp(x[list(block)])) for block in blocks)


def perron_symmetry_check(g: Graph, blocks: Sequence[Sequence[int]], alpha: float) -> bool:
    """Whether Perron coordinates, by power iteration, agree within each
    block of vertices up to ``SYMMETRY_TOL``."""
    return block_spread(alpha_index(g, alpha).perron, blocks) <= SYMMETRY_TOL
