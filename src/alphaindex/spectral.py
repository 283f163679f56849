"""A_alpha matrices, the alpha-index, Perron vectors, bounds, and certificates.

The matrix of interest is alpha*D + (1-alpha)*A.  For a connected graph it
is irreducible and nonnegative, so its largest eigenvalue is the Perron
root with a unique positive eigenvector.  Every A_alpha is formed by one
array expression from an adjacency stack, the 0/1 matrices of graphs of
one order unpacked from their bit rows in one numpy step.
:func:`degree_sums` reads each vertex's degree d = A 1 and neighbour-degree
sum S = A d from the same stack, for the degree bounds and the proof
matrix's :func:`column_sums`.

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
case.  :func:`perron_pairs` serves campaigns: it takes ``(graph, alpha)``
cases, builds one adjacency stack per order that packs each distinct
graph once, and makes one LAPACK ``eigh`` call per run of that order's
cases, a run holding as many cases as fit in ``_STACK_ENTRIES`` or as
the order has at one alpha, whichever is more (so alpha-major cases of a
small order pay numpy's per-call cost once, while a large order keeps
one alpha per call and the memory of one), and :func:`lambda_maxes` (per
component) takes its values from it.  Each
batched eigenpair is certified (residual within the power-iteration
tolerance, unit-sum top eigenvector positive up to that tolerance, which
on an irreducible nonnegative matrix singles out the Perron vector); the
graphs that fail are re-solved by power iteration, in one call per run,
and their :class:`Perron` pairs carry ``fallback`` so that the caller can
flag them.  Campaigns solve through :func:`perron_pairs`.

:func:`perron_bounds` brackets rho without a solve: for any nonnegative
matrix and positive x, rho lies between the least and the largest ratio
(A_alpha x)_u / x_u (Collatz-Wielandt).  At x = d the upper ratio is
Lemma 1's degree average; x is d after ``BOUND_STEPS`` normalised power
steps, taken on the 0/1 stack with the alphas as a broadcast axis.  A
theorem campaign screens the classes it solves with one call of it over
all its orders or sizes (``harness._screen`` gives the argument that the
screen loses no verdict).

Power iteration stays the independent cross-check of the batched
values: it confirms the values a verdict rests on, all those of one
theorem campaign (or of one lemma target) in one call, and
:func:`perron_symmetry_check` re-tests a block whose :func:`block_spread`
on a batched vector is too wide, since that vector is accurate only to
about residual / spectral gap.  It also serves the ``rho`` and ``bounds``
commands.  Components, and the connectivity test
behind :class:`DisconnectedGraphError`, come from the breadth-first reach
of :mod:`alphaindex.connectivity`, the walk that the deletion recognizer
runs on; the chord recognizer's block walk stays separate from both.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .connectivity import components, is_connected
from .graphs import Graph, GraphError, emit_graph6

POWER_TOL = 1e-12
POWER_MAX_ITERATIONS = 64  # squarings: 2^64 power steps
COLUMN_SUM_CROSS_TOL = 1e-9
SYMMETRY_TOL = 1e-9

# At most this many entries (n^2 per case of order n) in one perron_pairs
# stack, unless one order's cases at one alpha alone exceed it.  Merging an
# order's alphas into one eigh call saves numpy's per-call cost, which
# dominates small stacks; stacking every alpha of a large order at once
# was no faster and raised the theorem1.4 campaign's peak RSS by 4.3%, so
# a large order keeps one alpha per stack.
_STACK_ENTRIES = 4096

# Normalised power steps from x = d before perron_bounds reads its
# Collatz-Wielandt ratios.  Timed over 4 to 16 steps on the theorem
# campaigns: fewer steps leave more classes to solve, and past 8 the steps
# over 1,602 classes of order 13 cost more than they save.
BOUND_STEPS = 8

# At most this many entries of the power iterate x (alphas x graphs x n) in
# one perron_bounds block; an order's further graphs go to further blocks
# of its stack.  A block's size sets the bounds' peak memory: one block per
# order over the default theorem1.4 campaign's classes raised its traced
# peak by 40 KB, and on 1,602 graphs of order 13 at 11 alphas blocks were
# faster than one (41-51 ms against 68 ms on a 2-core VM).
_BOUND_ENTRIES = 4096


class SpectralError(RuntimeError):
    pass


class DisconnectedGraphError(ValueError):
    """Perron guarantees need a connected graph; split into components first.
    The message names the graph by its graph6."""

    def __init__(self, g: Graph):
        super().__init__(f"{emit_graph6(g)} is disconnected; the Perron pair needs a connected graph")


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
    A has an edge, alpha*d(v) on it.  ``alpha`` is one value, or one per
    matrix of ``adj`` (shape (k,))."""
    alpha = np.asarray(alpha, float)
    n = adj.shape[1]
    a = (1.0 - alpha)[..., None, None] * adj
    a.reshape(len(a), -1)[:, :: n + 1] = alpha[..., None] * degrees  # the diagonals
    return a


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
            raise DisconnectedGraphError(g)
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
                    out[i] = SpectralResult(float(rho[j]), x[j], float(residual[j]), iteration)
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


def perron_pairs(cases: Sequence[tuple[Graph, float]]) -> list[Perron]:
    """:class:`Perron` pairs of many ``(graph, alpha)`` cases, one per case,
    in input order; ``x`` is the unit-sum Perron vector.

    Every alpha is range-checked, and then every graph object tested for
    connectivity once, before any solve.  The cases of one order share one
    adjacency stack, which packs each graph object once, and are solved in
    runs of consecutive cases: the A_alpha matrices of a run form one
    stack, with one ``eigh`` call and one certification each.  A run takes
    as many cases as keep its stack within ``_STACK_ENTRIES`` entries (n^2
    per case of order n), and at least as many as the order has at its
    most frequent alpha, so a stack holds at most one alpha's worth of a
    large order, and a caller that lists its cases alpha-major gets one
    run per alpha of a large order and every alpha of a small one in one
    run.

    Every eigenpair is certified before it is used, vectorised over the
    stack: it must pass the residual test of :func:`alpha_index`, and the
    unit-sum top eigenvector must be positive (on an irreducible
    nonnegative matrix only the Perron vector is).  Positivity is tested
    against ``-POWER_TOL``, the residual test's own tolerance: ``eigh``
    resolves eigenvector entries only to about machine epsilon, so a true
    entry of 1e-19 (far vertices as alpha -> 1) can come back as -1e-16,
    and a strict ``> 0`` would send such a graph to power iteration for a
    rounding error.  Power iteration keeps the strict test, since its
    products of nonnegative matrices cannot round below zero.  The cases of
    a run that fail are re-solved in one :func:`alpha_indices` call and
    have ``fallback`` set.  Each matrix's eigenpair and certificate depend
    on no other matrix of its stack, so a case comes out bit for bit the
    same whichever cases share its run.
    """
    cases = list(cases)
    for _, alpha in cases:
        if not 0.0 <= alpha < 1.0:
            raise ValueError(f"alpha must lie in [0, 1) for the Perron pair, got {alpha}")
    # order -> (id of a graph -> its position in the order's stack, the
    # stack's graphs, the order's cases); keyed by id, since hashing a Graph
    # costs more than the solve's other per-case work, and callers repeat
    # a graph by passing the same object.
    by_order: dict[int, tuple[dict[int, int], list[Graph], list[int]]] = {}
    slots = []  # each case's position in its order's stack
    for i, (g, _) in enumerate(cases):
        packed, graphs, members = by_order.setdefault(g.n, ({}, [], []))
        slot = packed.get(id(g))
        if slot is None:
            if not is_connected(g):
                raise DisconnectedGraphError(g)
            slot = packed[id(g)] = len(graphs)
            graphs.append(g)
        slots.append(slot)
        members.append(i)
    out: list = [None] * len(cases)
    for n, (_, graphs, members) in by_order.items():
        adj = adjacency_stack(graphs)
        degrees = adj.sum(axis=2)
        at_one_alpha = max(Counter(cases[i][1] for i in members).values())
        step = max(_STACK_ENTRIES // (n * n), at_one_alpha)
        for start in range(0, len(members), step):
            run = members[start:start + step]
            which = [slots[i] for i in run]
            a = _alpha_stack(adj[which], degrees[which], [cases[i][1] for i in run])
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
            failed = [cases[i] for i, ok in zip(run, certified) if not ok]
            redone = iter(alpha_indices(failed) if failed else ())
            for i, value, vector, ok in zip(run, rho.tolist(), x, certified):
                if not ok:
                    result = next(redone)
                    value, vector = result.rho, result.perron
                out[i] = Perron(value, vector, not ok)
    return out


def perron_bounds(
    graphs: Sequence[Graph], alphas: Sequence[float],
) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds on rho of each graph at each alpha, as two
    arrays of shape (len(alphas), len(graphs)).

    For any nonnegative matrix and positive x, min_u (A_alpha x)_u / x_u <=
    rho <= max_u (A_alpha x)_u / x_u (Collatz-Wielandt), so the bounds need
    no connectivity argument.  At x = d the upper one is Lemma 1's degree
    average; here x is d after ``BOUND_STEPS`` normalised power steps,
    which narrows the bracket.  Each step is alpha d*x + (1-alpha) A x on
    the 0/1 adjacency stack of one order, every alpha a broadcast axis, so
    no A_alpha matrix is formed; an order's graphs are stepped in blocks of
    at most ``_BOUND_ENTRIES`` entries of x.
    """
    alpha = np.reshape(np.asarray(alphas, float), (-1, 1, 1))
    lower = np.empty((len(alpha), len(graphs)))
    upper = np.empty_like(lower)
    by_order: dict[int, list[int]] = {}
    for i, g in enumerate(graphs):
        by_order.setdefault(g.n, []).append(i)
    for positions in by_order.values():
        adj = adjacency_stack([graphs[i] for i in positions])
        d = adj.sum(axis=2)
        if d.min() == 0.0:
            raise GraphError("Collatz-Wielandt bounds from x = d need no isolated vertices")
        block = max(1, _BOUND_ENTRIES // (max(len(alpha), 1) * adj.shape[1]))
        for start in range(0, len(positions), block):
            part = slice(start, start + block)
            ratios = _collatz_wielandt_ratios(adj[part], d[part], alpha)
            lower[:, positions[part]] = ratios.min(axis=2)
            upper[:, positions[part]] = ratios.max(axis=2)
    return lower, upper


def _collatz_wielandt_ratios(adj: np.ndarray, d: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """The ratios (A_alpha x)_u / x_u of each alpha (axis 0), graph (axis 1)
    and vertex of a 0/1 stack ``adj`` with degrees ``d``, where x is d after
    ``BOUND_STEPS`` normalised power steps.  Every graph's ratios depend on
    its own slice only, so a graph gives the same bits in any block."""

    def step(x: np.ndarray) -> np.ndarray:
        """A_alpha x for every alpha (axis 0) and graph (axis 1), by one
        matrix-vector product per graph, the form power iteration
        uses.  A matrix product over the alphas' columns was faster on
        1,602 graphs of order 13 but raised the theorem1.4 campaign's
        peak RSS by about 0.1 MB, as did keeping alpha*d as an array."""
        return alpha * d * x + (1.0 - alpha) * (adj @ x[..., None])[..., 0]

    x = np.broadcast_to(d, (len(alpha), *d.shape))
    for _ in range(BOUND_STEPS):
        x = step(x)
        x = x / x.max(axis=2, keepdims=True)
    return step(x) / x


def lambda_max(g: Graph, alpha: float) -> float:
    """Largest A_alpha eigenvalue of a possibly disconnected graph."""
    best = 0.0
    for comp in components(g):
        rho = alpha_index(induced_subgraph(g, comp), alpha).rho
        if rho > best:
            best = rho
    return best


def lambda_maxes(cases: Sequence[tuple[Graph, float]]) -> list[tuple[float, int]]:
    """:func:`lambda_max` of many ``(graph, alpha)`` cases on possibly
    disconnected graphs, each with the number of its components that fell
    back to power iteration.

    Every graph is split into its components, which are solved together,
    each at its case's alpha, by :func:`perron_pairs`; each case takes the
    largest of its components' values.
    """
    parts: list[tuple[Graph, float]] = []
    owner: list[int] = []
    for i, (g, alpha) in enumerate(cases):
        for comp in components(g):
            parts.append((g if len(comp) == g.n else induced_subgraph(g, comp), alpha))
            owner.append(i)
    best = [0.0] * len(cases)
    fallbacks = [0] * len(cases)
    for i, pair in zip(owner, perron_pairs(parts)):
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


def degree_sums(adj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The degrees d = A 1 and the neighbour-degree sums S = A d of each
    graph of an adjacency stack, each of shape (k, n); every entry is an
    exact integer in float64."""
    d = adj.sum(axis=2)
    return d, np.einsum("kij,kj->ki", adj, d)


def upper_bounds_degree_average(adj: np.ndarray, alpha: float) -> np.ndarray:
    """max_u of alpha*d(u) + (1-alpha)*S(u)/d(u) for each graph of an
    adjacency stack (:func:`degree_sums`)."""
    d, s = degree_sums(adj)
    if not d.all():
        raise GraphError("degree-average bound needs no isolated vertices")
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


def column_sums(adj: np.ndarray, alpha: float, variant: str) -> np.ndarray:
    """Column sums (k, n) of the proof matrix B of each stacked graph, by closed expansion.

    Both variants are B = p A_alpha^2 - q alpha A_alpha + 2(2alpha-1) r I,
    with (p, q, r) = (1, n, n-2) for order and (2, m+4, m) for size (m is
    half the degree sum).  Since column sums of A_alpha are the degrees
    and c_u(A_alpha^2) = alpha*d(u)^2 + (1-alpha)*S(u), where S(u) =
    sum_{uv in E} d(v) (:func:`degree_sums`),

        c_u = p (alpha*d(u)^2 + (1-alpha)*S(u)) - q*alpha*d(u) + 2(2alpha-1) r.

    The expansion is cross-checked against the column sums of the literal
    A_alpha stack and its square; on K_{2,n-2} every order c_u vanishes
    identically, which is the equality case of the order claim.
    """
    d, s = degree_sums(adj)
    if variant == "order":
        p, q, r = 1, adj.shape[1], adj.shape[1] - 2
    elif variant == "size":
        m = d.sum(axis=1, keepdims=True) // 2
        p, q, r = 2, m + 4, m
    else:
        raise ValueError(f"unknown certificate variant {variant!r}")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    shift = 2.0 * (2.0 * alpha - 1.0) * r
    sums = p * (alpha * d ** 2 + (1.0 - alpha) * s) - q * alpha * d + shift
    a = _alpha_stack(adj, d, alpha)
    literal = p * (a @ a).sum(axis=1) - q * alpha * a.sum(axis=1) + shift
    if np.max(np.abs(literal - sums)) > COLUMN_SUM_CROSS_TOL:
        raise SpectralError("column-sum expansion disagrees with the literal matrix")
    return sums


def block_spread(x: np.ndarray, blocks: Sequence[Sequence[int]]) -> float:
    """The largest difference between two entries of ``x`` in one block."""
    return max(float(np.ptp(x[list(block)])) for block in blocks)


def perron_symmetry_check(g: Graph, blocks: Sequence[Sequence[int]], alpha: float) -> bool:
    """Whether Perron coordinates, by power iteration, agree within each
    block of vertices up to ``SYMMETRY_TOL``."""
    return block_spread(alpha_index(g, alpha).perron, blocks) <= SYMMETRY_TOL
