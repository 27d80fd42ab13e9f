"""Least-squares fusion of per-link estimates into per-node values.

Link exchanges produce relative quantities (offsets, log-skews, state
estimates) between node pairs; pinning the reference node at zero and
solving the least-squares problem on the graph turns them into
consistent nodal values.  Two routes: a direct solve of the normal
equations (the oracle, and the best linear unbiased combination for
equal link variances), and the asynchronous per-node relaxation that a
deployed network would actually run, which converges to the same fixed
point.

:class:`SyncGraph` builds each node's incident edges once, and
:class:`RelativeEstimates` is the one link store: the protocol machine
fills it link by link and relaxes nodes over the links stored so far
(:meth:`RelativeEstimates.relax`), while :func:`jacobi_step` relaxes
over a graph's edges.  Both run the same relaxation loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SyncGraph",
    "RelativeEstimates",
    "SmoothResult",
    "reduced_incidence",
    "blue_solve",
    "jacobi_step",
    "smooth",
    "write_nodal_csv",
]


@dataclass(frozen=True)
class SyncGraph:
    """Communication graph over nodes {0, ..., n} with reference node 0.

    ``n`` counts the non-reference nodes; ``edges`` are directed pairs
    (the direction fixes the sign convention of the stored estimate:
    the value on (i, j) refers to node j's quantity minus node i's).
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need at least one non-reference node, got n={self.n!r}")
        object.__setattr__(self, "edges", tuple((int(i), int(j)) for i, j in self.edges))
        for (i, j) in self.edges:
            if i == j:
                raise ValueError(f"self-loop ({i}, {j}) not allowed")
            if not (0 <= i <= self.n and 0 <= j <= self.n):
                raise ValueError(f"edge ({i}, {j}) references nodes outside 0..{self.n}")
        # The edges of each node that has any, in graph order: O(edges)
        # whatever n is.  Not a field, so eq, hash and repr see only n and
        # edges, and dataclasses.replace rebuilds it.
        incident: dict[int, list[tuple[int, int]]] = {}
        for e in self.edges:
            incident.setdefault(e[0], []).append(e)
            incident.setdefault(e[1], []).append(e)
        object.__setattr__(self, "_incident", {k: tuple(v) for k, v in incident.items()})

    def incident(self, node: int) -> tuple[tuple[int, int], ...]:
        """Edges touching ``node``, in graph order."""
        return self._incident.get(node, ())

    def is_connected(self) -> bool:
        seen = {0}
        frontier = [0]
        while frontier:
            u = frontier.pop()
            for (i, j) in self.incident(u):
                w = j if i == u else i
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return len(seen) == self.n + 1


class RelativeEstimates:
    """One finite value per directed link, with each node's links.

    ``links[node]`` lists the stored links that touch ``node`` in the
    order they were first stored, which is the order in which
    ``SyncGraph(edges=tuple(values))`` would list them.
    """

    def __init__(self, values: dict[tuple[int, int], float] | None = None) -> None:
        self.values: dict[tuple[int, int], float] = {}
        self.links: dict[int, list[tuple[int, int]]] = {}
        for (i, j), v in (values or {}).items():
            self.store((int(i), int(j)), float(v))

    def store(self, link: tuple[int, int], value: float) -> None:
        if not math.isfinite(value):
            raise ValueError(f"estimate on edge {link} must be finite, got {value!r}")
        if link not in self.values:
            for node in link:
                self.links.setdefault(node, []).append(link)
        self.values[link] = value

    def relax(self, node: int, v) -> None:
        """Set ``v[node]`` to the relaxation of :func:`jacobi_step` over
        the stored links, ``v`` being an array or a list of node values.
        Nodes with no stored link, and the reference, keep their value."""
        links = self.links.get(node)
        if node == 0 or not links:
            return
        v[node] = self._relaxed(node, v, links)

    def _relaxed(self, node: int, v, links) -> float:
        """Mean over ``links`` of the neighbour's value plus the link
        value oriented toward ``node`` (negated when stored away)."""
        total = 0.0
        for (i, j) in links:
            value = self.values[i, j]
            total += v[i] + value if j == node else v[j] - value
        return total / len(links)


@dataclass(frozen=True)
class SmoothResult:
    values: np.ndarray
    sweeps: int
    converged: bool
    final_delta: float


def reduced_incidence(g: SyncGraph) -> np.ndarray:
    """Edge-by-node matrix with -1 at i and +1 at j, reference column dropped.

    Raises
    ------
    ValueError
        "graph not connected" — the normal equations are singular then.
    """
    if not g.is_connected():
        raise ValueError("graph not connected")
    b = np.zeros((len(g.edges), g.n))
    for r, (i, j) in enumerate(g.edges):
        if i != 0:
            b[r, i - 1] = -1.0
        if j != 0:
            b[r, j - 1] = 1.0
    return b


def _edge_vector(g: SyncGraph, rel: RelativeEstimates) -> np.ndarray:
    try:
        return np.array([rel.values[e] for e in g.edges])
    except KeyError as exc:
        raise ValueError(f"missing relative estimate for edge {exc.args[0]}") from None


def blue_solve(g: SyncGraph, rel: RelativeEstimates) -> np.ndarray:
    """Exact least-squares nodal values (reference pinned at 0).

    Solves ``(B'B) v = B' x`` for the reduced incidence matrix B; the
    residual is orthogonal to the range of B, and consistent inputs
    (exact differences of some potential) are recovered exactly.
    Returns the full vector over nodes 0..n with ``v[0] = 0``.
    """
    b = reduced_incidence(g)
    x = _edge_vector(g, rel)
    v = np.linalg.solve(b.T @ b, b.T @ x)
    return np.concatenate(([0.0], v))


def jacobi_step(i: int, v: np.ndarray, g: SyncGraph, rel: RelativeEstimates) -> float:
    """One node's relaxation: average of neighbor values plus edge estimates.

    ``v_i <- (1/d_i) sum over incident edges of (v_neighbor + estimate
    oriented toward i)``, with d_i the incident edge count (parallel
    edges in both directions each count once, which averages their
    estimates).
    """
    if i == 0:
        raise ValueError("reference node is pinned at zero")
    inc = g.incident(i)
    if not inc:
        raise ValueError(f"isolated node {i}")
    return rel._relaxed(i, v, inc)


def smooth(
    g: SyncGraph,
    rel: RelativeEstimates,
    tol: float = 1e-9,
    max_iter: int = 10_000,
    schedule: str = "random",
    seed: int = 0,
) -> SmoothResult:
    """Iterate per-node relaxations until the largest change drops below tol.

    ``schedule="sweep"`` visits nodes 1..n in order (deterministic);
    ``"random"`` shuffles the order each sweep, mimicking asynchronous
    operation.  Non-convergence within ``max_iter`` sweeps is flagged
    on the result, not raised.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be nonnegative, got {max_iter!r}")
    if schedule not in ("sweep", "random"):
        raise ValueError(f"unknown schedule {schedule!r}")
    _edge_vector(g, rel)  # validate coverage up front
    isolated = next((i for i in range(1, g.n + 1) if not g.incident(i)), None)
    if isolated is not None:  # O(edges): at most one past the nodes edges touch
        raise ValueError(f"isolated node {isolated}")
    v = np.zeros(g.n + 1)
    if math.isinf(tol):  # any change is acceptable: nothing to do
        return SmoothResult(values=v, sweeps=0, converged=True, final_delta=0.0)
    rng = np.random.default_rng(seed)
    order = np.arange(1, g.n + 1)
    delta = math.inf
    for sweep in range(max_iter):
        if schedule == "random":
            rng.shuffle(order)
        delta = 0.0
        for i in order:
            new = jacobi_step(int(i), v, g, rel)
            delta = max(delta, abs(new - v[i]))
            v[i] = new
        if delta < tol:
            return SmoothResult(values=v, sweeps=sweep + 1, converged=True,
                                final_delta=delta)
    return SmoothResult(values=v, sweeps=max_iter, converged=False, final_delta=delta)


def write_nodal_csv(values: np.ndarray, path) -> None:
    """Dump nodal values as CSV: ``node,value``."""
    rows = np.column_stack([np.arange(len(values)), values])
    np.savetxt(path, rows, delimiter=",", header="node,value", comments="",
               fmt=["%d", "%.17g"])
