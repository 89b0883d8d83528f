"""Self-check suite behind the `validate` CLI command.

Each check recomputes a core identity through two independent routes and
compares them; the perturb flag injects a deliberately wrong constant into
the exponent-rate check as a negative control.
"""

from __future__ import annotations

import inspect
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import connmass, mc_sim, pfc_analytic
from .errors import DomainError
from .geometry import enumerate_features, house_prism, sample_uniform_rng
from .linkmodels import (
    Mimo,
    PathLossParams,
    SimoMiso,
    mimo_gamma_form,
    pair_connectedness,
    pair_connectedness_many,
    pair_connectedness_mimo_det,
)

__all__ = [
    "CHECK_NAMES",
    "CheckResult",
    "bfs_component_count",
    "brute_force_connectivity_probability",
    "run_checks",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def __post_init__(self) -> None:
        # a comparison of numpy floats gives np.bool_: keep a Python bool
        object.__setattr__(self, "passed", bool(self.passed))


def bfs_component_count(n: int, edges: Iterable[tuple[int, int]]) -> int:
    """Reference component count by breadth-first search."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = [False] * n
    components = 0
    for start in range(n):
        if seen[start]:
            continue
        components += 1
        seen[start] = True
        queue = deque([start])
        while queue:
            node = queue.popleft()
            for nxt in adj[node]:
                if not seen[nxt]:
                    seen[nxt] = True
                    queue.append(nxt)
    return components


def brute_force_connectivity_probability(h_matrix: np.ndarray) -> float | np.ndarray:
    """Connectivity probability by enumerating every edge subset.

    Edge k is the k-th pair (i, j), i < j, in row order, and subset `mask`
    holds edge k when bit k is set; only the upper triangle of `h_matrix`
    is read.  All subsets are decided at once: node 0's reachable set grows
    by its members' neighbour bitmasks for n - 1 rounds.  The 20-pair cap
    admits at most 6 nodes: 15 pairs, 32 768 subsets, a 3.3 MB peak.

    `h_matrix` is one (n, n) matrix, which gives a float, or a stack
    (B, n, n), which gives an array whose entry b is, bit for bit, the
    float of matrix b alone.  Reachability is tabulated once per call, so a
    stack peaks below B times the one-matrix cap: at 6 nodes, about 2.4 MB
    of shared tables plus 0.9 MB per matrix (11.4 MB for 10).
    """
    h = np.asarray(h_matrix, dtype=float)
    if h.ndim not in (2, 3) or h.shape[-2] != h.shape[-1]:
        raise DomainError(f"H must be a square matrix or a stack of them, got shape {h.shape}")
    if not np.all((h >= 0.0) & (h <= 1.0)):  # NaN fails both
        raise DomainError("H entries must be finite and within [0, 1]")
    stack = h[None] if h.ndim == 2 else h
    n = h.shape[-1]
    ii, jj = np.triu_indices(n, k=1)
    m = ii.size
    if m > 20:
        raise DomainError(f"edge-subset enumeration capped at 20 pairs, got {m}")

    # prob[:, mask] = prod over edges k of H_k if bit k is set, else 1 - H_k,
    # one edge at a time: the masks with top bit k are those below 1 << k
    # times H_k, and those below take 1 - H_k.  This multiplies in edge
    # order, as a per-subset loop would.
    prob = np.ones((len(stack), 1 << m))
    masks = np.arange(1 << m)
    neighbours = np.zeros((n, 1 << m), dtype=np.intp)
    for k, (i, j) in enumerate(zip(ii.tolist(), jj.tolist())):
        h_k = stack[:, i, j : j + 1]
        prob[:, 1 << k : 2 << k] = prob[:, : 1 << k] * h_k
        prob[:, : 1 << k] *= 1.0 - h_k
        held = masks >> k & 1
        neighbours[i] |= held << j
        neighbours[j] |= held << i
    reach = np.full(1 << m, 1 if n else 0, dtype=np.intp)  # node 0, if any
    for _ in range(n - 1):
        for v in range(n):
            reach |= np.where(reach >> v & 1, neighbours[v], 0)
    # Summed left to right in mask order, as one running total would.
    linked = prob[:, reach == (1 << n) - 1]
    totals = np.cumsum(np.hstack((np.zeros((len(stack), 1)), linked)), axis=1)[:, -1]
    return float(totals[0]) if h.ndim == 2 else totals


def _check_cross_form_h() -> tuple[bool, str]:
    # The production H is the scipy-free Poisson closed form; the
    # determinant and gamma forms go through scipy's incomplete gammas.
    r = np.linspace(0.0, 5.0, 21)
    worst = 0.0
    for n in (2, 4, 6, 8):
        for beta in (0.5, 1.0, 2.0):
            for eta in (2.0, 3.0, 4.0):
                params = PathLossParams(beta, eta, 3)
                a = pair_connectedness_many(Mimo(2, n, params), r)
                b = pair_connectedness_mimo_det(2, n, params, r)
                c = mimo_gamma_form(n, params, r)
                worst = max(worst, float(np.abs(a - b).max()), float(np.abs(a - c).max()))
    return worst < 1e-10, f"max abs divergence {worst:.3e}"


# One row per link family: its link of order k and the orders the mass oracle
# checks.
_FAMILIES = (
    ("simo", SimoMiso, (1, 3, 8)),
    ("mimo", lambda k, params: Mimo(2, k, params), (2, 5, 8)),
)


def _check_mass_oracle() -> tuple[bool, str]:
    worst = 0.0
    for d in (1, 2, 3):
        for eta in (2.0, 3.0, 4.0):
            params = PathLossParams(1.0, eta, d)
            for _, link, orders in _FAMILIES:
                for k in orders:
                    model = link(k, params)
                    closed = model.moment(d)
                    quad = connmass.mass_quadrature(model).value
                    worst = max(worst, abs(closed - quad) / quad)
    return worst < 1e-6, f"max relative gap {worst:.3e}"


def _check_exponent_rates(perturb: bool = False) -> tuple[bool, str]:
    model = Mimo(2, 2, PathLossParams(1.0, 2.0, 3))
    mass = connmass.mass_quadrature(model).value
    worst = 0.0
    for feature in enumerate_features(house_prism(7.0)):
        rate = pfc_analytic.feature_contribution(feature, model).exponent_rate
        if perturb:
            rate *= 1.001
        worst = max(worst, abs(rate / (feature.solid_angle * mass) - 1.0))
    return worst < 1e-9, f"max relative gap {worst:.3e}"


def _check_scaling_slopes() -> tuple[bool, str]:
    params = PathLossParams(1.0, 2.0, 3)
    ks = [4, 8, 16, 32, 64]
    slopes = {
        name: connmass.loglog_slope(ks, [
            abs(link(k, params).moment(3) / connmass.mass_scaling_leading(k, params) - 1.0)
            for k in ks
        ])
        for name, link, _ in _FAMILIES
    }
    details = [f"{name} {slope:.3f}" for name, slope in slopes.items()]
    ok = abs(slopes["simo"] + 1.0) < 0.15 and abs(slopes["mimo"] + 0.5) < 0.15
    for d, eta in ((3, 2.0), (3, 3.0), (2, 4.0)):
        slope = connmass.error_order_fit([8, 16, 32, 64, 128], PathLossParams(1.0, eta, d))
        expected = d / eta - 0.5
        details.append(f"eps(d={d},eta={eta:g}) {slope:.3f}")
        ok = ok and abs(slope - expected) < 0.2
    return ok, "; ".join(details)


def _check_union_find() -> tuple[bool, str]:
    rng = np.random.default_rng(20240117)
    for _ in range(500):
        n = int(rng.integers(2, 65))
        p = float(rng.uniform(0.0, 3.0)) / n
        # the pairs i < j in row order, each kept by one uniform
        src, dst = mc_sim._pair_nodes(n, np.flatnonzero(rng.random(n * (n - 1) // 2) < p))
        edges = list(zip(src.tolist(), dst.tolist()))
        connected, count = mc_sim.connectivity_check(n, edges)
        ref = bfs_component_count(n, edges)
        if count != ref or connected != (ref == 1):
            return False, f"mismatch on n={n} with {len(edges)} edges"
    return True, "500 random graphs agree with BFS"


def _check_exact_oracle() -> tuple[bool, str]:
    rng = np.random.default_rng(8811)
    prism = house_prism(3.0)
    model = Mimo(2, 2, PathLossParams(0.3, 2.0, 3))
    # Each configuration's H two ways, grouped by node count: per-pair norms
    # and scalar H for the brute force, the exact oracle's own pair table
    # for the recursion.  Each oracle then takes one stack per node count.
    h_stacks: dict[int, list[np.ndarray]] = {}
    q_stacks: dict[int, list[np.ndarray]] = {}
    for _ in range(200):
        n = int(rng.integers(2, 6))
        pts = sample_uniform_rng(prism, n, rng)
        h = np.zeros((n, n))
        for i, j in zip(*np.triu_indices(n, k=1)):
            h[i, j] = h[j, i] = pair_connectedness(model, float(np.linalg.norm(pts[i] - pts[j])))
        h_stacks.setdefault(n, []).append(h)
        q_stacks.setdefault(n, []).append(mc_sim._miss_matrix(pts, model))
    worst = 0.0
    for n, hs in h_stacks.items():
        exact = mc_sim._subset_recursion(np.array(q_stacks[n]))
        brute = brute_force_connectivity_probability(np.array(hs))
        worst = max(worst, float(np.abs(exact - brute).max()))
    return worst < 1e-12, f"max abs divergence {worst:.3e}"


_CHECKS: dict[str, Callable[..., tuple[bool, str]]] = {
    "cross-form-h": _check_cross_form_h,
    "mass-oracle": _check_mass_oracle,
    "exponent-rates": _check_exponent_rates,
    "scaling-slopes": _check_scaling_slopes,
    "union-find": _check_union_find,
    "exact-oracle": _check_exact_oracle,
}

CHECK_NAMES = tuple(_CHECKS)


def run_checks(
    names: Sequence[str] | None = None, perturb: bool = False
) -> list[CheckResult]:
    """Run the named checks (all by default) and return their results."""
    selected = list(names) if names else list(CHECK_NAMES)
    unknown = [n for n in selected if n not in _CHECKS]
    if unknown:
        raise DomainError(f"unknown checks {unknown}; available: {list(CHECK_NAMES)}")
    results = []
    for name in selected:
        check = _CHECKS[name]
        controlled = "perturb" in inspect.signature(check).parameters
        results.append(CheckResult(name, *(check(perturb=perturb) if controlled else check())))
    return results
