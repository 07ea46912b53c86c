"""Regret computation and its exact four-term decomposition.

Total regret (against the greedy oracle) splits exactly into a
discretisation term (the regret of the discretised oracle) plus the cost
of learning the induced finite bandit; the latter splits again, arm by
arm, into the value left unpulled in the best bins, the churn inside the
bin that straddles the budget, and the price of pulls in worse bins.
Both identities hold for any trace and any threshold value because the
threshold terms cancel against the matching pull counts; they are used as
cross-checks rather than assumptions.

All regrets are computed from true means, never sampled rewards, and all
arm-mean sums are accumulated in ascending arm-index order so that equal
pull sets reproduce the same float, making oracle regret exactly zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .environment import Constant, Instance, MeanFunction, PiecewiseLinear, Record

__all__ = [
    "RegretDecomposition",
    "DiagnosticsReport",
    "bin_mean",
    "bin_means_quadrature",
    "bin_means_empirical",
    "compute_f_hat",
    "rank_bins",
    "regret_total",
    "regret_decompose",
    "diagnostics",
]


# ---------------------------------------------------------------------------
# Bin means
# ---------------------------------------------------------------------------


def _piecewise_bin_mean(breakpoints, values, lo: float, hi: float) -> float:
    """Exact average of a piecewise-linear function over [lo, hi]."""
    inner = [b for b in breakpoints if lo < b < hi]
    knots = np.array([lo] + inner + [hi])
    vals = np.interp(knots, breakpoints, values)
    total = float(np.trapezoid(vals, knots))
    return total / (hi - lo)


def bin_mean(f: MeanFunction, lo, hi, nodes: int = 10**4) -> float:
    """Average of the mean function over an axis-aligned bin.

    Piecewise-linear functions (the lower-bound members among them) and
    constants integrate in closed form.  Everything else uses composite
    midpoint quadrature with ``nodes`` points along each axis in one
    dimension, and roughly ``nodes`` points total above (error at most
    L * diag / (2 * nodes_per_axis) for an L-Lipschitz mean).
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=np.float64))
    hi = np.atleast_1d(np.asarray(hi, dtype=np.float64))
    if lo.shape != hi.shape or np.any(lo < 0) or np.any(hi > 1) or np.any(lo >= hi):
        raise ValueError("bin bounds must satisfy 0 <= lo < hi <= 1")
    if isinstance(f, Constant):
        return float(f.value)
    if isinstance(f, PiecewiseLinear):
        return _piecewise_bin_mean(f.breakpoints, f.values, float(lo[0]), float(hi[0]))
    dim = lo.size
    per_axis = nodes if dim == 1 else max(2, int(round(nodes ** (1.0 / dim))))
    axes = [
        lo[a] + (hi[a] - lo[a]) * (np.arange(per_axis) + 0.5) / per_axis
        for a in range(dim)
    ]
    if dim == 1:
        pts = axes[0].reshape(-1, 1)
    else:
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
    return float(np.mean(f.evaluate(pts)))


def bin_means_quadrature(f: MeanFunction, partition, nodes: int = 10**4) -> np.ndarray:
    """Bin means of the true mean function for every bin of a partition."""
    out = np.empty(partition.bin_count)
    for b in range(partition.bin_count):
        lo, hi = partition.bin_bounds(b)
        out[b] = bin_mean(f, lo, hi, nodes)
    return out


def bin_means_empirical(instance: Instance, partition) -> np.ndarray:
    """Within-bin averages of the true arm means; empty bins report 0."""
    sums = np.bincount(
        partition.assignment, weights=instance.true_means, minlength=partition.bin_count
    )
    counts = np.maximum(partition.counts, 1)
    out = sums / counts
    out[partition.counts == 0] = 0.0
    return out


# ---------------------------------------------------------------------------
# Budget boundary
# ---------------------------------------------------------------------------


def compute_f_hat(ordered_counts, t_budget: int) -> int:
    """Number of bins fully consumed by a budget of T, given per-bin arm
    counts already ordered by decreasing bin mean.

    Returns the unique f with N_1 + ... + N_f < T <= N_1 + ... + N_{f+1},
    which is 0 when the first bin alone covers the budget.
    """
    counts = np.asarray(ordered_counts)
    if counts.ndim != 1 or counts.size == 0:
        raise ValueError("counts must be a non-empty vector")
    if np.any(counts < 0):
        raise ValueError("counts must be nonnegative")
    if t_budget < 1:
        raise ValueError("budget must be positive")
    cum = np.cumsum(counts)
    if cum[-1] < t_budget:
        raise ValueError("total arm count is below the budget")
    return int(np.searchsorted(cum, t_budget, side="left"))


def rank_bins(partition, bin_means, t_budget: int) -> tuple[np.ndarray, int]:
    """The discretised oracle's ranking: bin ids by decreasing bin mean,
    ties to the lower id, and f_hat, the number of leading bins a budget
    of T empties."""
    bin_means = np.asarray(bin_means, dtype=np.float64)
    if bin_means.size != partition.bin_count:
        raise ValueError("one bin mean per bin required")
    order = np.argsort(-bin_means, kind="stable")
    return order, compute_f_hat(partition.counts[order], t_budget)


# ---------------------------------------------------------------------------
# Regret
# ---------------------------------------------------------------------------


def _pull_mask(n: int, pulled: np.ndarray) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    mask[pulled] = True
    if int(mask.sum()) != pulled.size:
        raise ValueError("trace contains duplicate arm indices")
    return mask


def regret_total(instance: Instance, trace) -> float:
    """Sum of the T largest true means minus the true means of the pulls."""
    if len(trace.pulled) != instance.T:
        raise ValueError(f"trace length {len(trace.pulled)} != budget {instance.T}")
    mask = _pull_mask(instance.n, np.asarray(trace.pulled))
    return instance.top_mean_sum() - float(instance.true_means[mask].sum())


@dataclass(frozen=True)
class RegretDecomposition(Record):
    """Exact split of one run's regret.

    r_total = r_disc + r_fmab and r_fmab = r_opt + r_boundary + r_subopt,
    both to float accumulation error.  r_fmab may be negative (a run can
    beat the discretised oracle); r_total cannot.
    """

    r_total: float
    r_disc: float
    r_fmab: float
    r_opt: float
    r_subopt: float
    r_boundary: float
    f_hat: int
    f: int
    m_hat: float
    threshold_M: float


def regret_decompose(
    instance: Instance,
    partition,
    bin_means,
    trace,
    discrete_trace,
) -> RegretDecomposition:
    """Arm-level decomposition of a trace against the discretised oracle.

    Both traces must cover the same instance, and the discrete trace must
    come from the discretised oracle under the same bin ordering (the one
    induced by ``bin_means`` with ties to the lower bin id).
    """
    t_budget = instance.T
    if len(trace.pulled) != t_budget or len(discrete_trace.pulled) != t_budget:
        raise ValueError("both traces must have exactly T pulls")
    if partition.n_arms != instance.n:
        raise ValueError("partition does not match the instance")
    order, f_hat = rank_bins(partition, bin_means, t_budget)
    rank = np.empty(partition.bin_count, dtype=np.int64)
    rank[order] = np.arange(partition.bin_count)

    means = instance.true_means
    m_thresh = instance.threshold_M
    in_phi = _pull_mask(instance.n, np.asarray(trace.pulled))
    in_phid = _pull_mask(instance.n, np.asarray(discrete_trace.pulled))
    arm_rank = rank[partition.assignment]

    top = arm_rank < f_hat
    boundary = arm_rank == f_hat
    low = arm_rank > f_hat
    r_opt = float(np.sum(means[top & ~in_phi] - m_thresh))
    r_boundary = float(np.sum(means[boundary & in_phid & ~in_phi] - m_thresh)) + float(
        np.sum(m_thresh - means[boundary & in_phi & ~in_phid])
    )
    r_subopt = float(np.sum(m_thresh - means[low & in_phi]))

    s_star = instance.top_mean_sum()
    s_phi = float(means[in_phi].sum())
    s_phid = float(means[in_phid].sum())

    return RegretDecomposition(
        r_total=s_star - s_phi,
        r_disc=s_star - s_phid,
        r_fmab=s_phid - s_phi,
        r_opt=r_opt,
        r_subopt=r_subopt,
        r_boundary=r_boundary,
        f_hat=f_hat,
        f=math.floor(instance.p * partition.bin_count + 1e-9),
        m_hat=instance.m_hat,
        threshold_M=m_thresh,
    )


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiagnosticsReport(Record):
    """Runtime quantities tracked against their concentration scales.

    ``m_hat_gap_scaled`` is |M_hat - M| * K / L (None when no Lipschitz
    constant is declared), ``count_dev_scaled`` is
    max_k |N_k - N/K^dim| * 2 K^dim / N; both hover at or below 1 when the
    corresponding concentration events hold.
    """

    n: int
    t_budget: int
    p: float
    k_per_axis: int
    dim: int
    bin_count: int
    f: int
    f_hat: int
    f_gap: int
    threshold_M: float
    m_hat: float
    m_hat_gap_scaled: Optional[float]
    max_count_dev: float
    count_dev_scaled: float


def diagnostics(instance: Instance, partition, bin_means) -> DiagnosticsReport:
    """Pure report of boundary, threshold and occupancy diagnostics."""
    _, f_hat = rank_bins(partition, bin_means, instance.T)
    f = math.floor(instance.p * partition.bin_count + 1e-9)
    m_hat = instance.m_hat
    max_dev = float(
        np.max(np.abs(partition.counts - instance.n / partition.bin_count))
    )
    lip = instance.mean.lipschitz_L
    if lip is not None and lip > 0:
        m_gap = abs(m_hat - instance.threshold_M) * partition.k_per_axis / lip
    else:
        m_gap = None
    return DiagnosticsReport(
        n=instance.n,
        t_budget=instance.T,
        p=instance.p,
        k_per_axis=partition.k_per_axis,
        dim=partition.dim,
        bin_count=partition.bin_count,
        f=f,
        f_hat=f_hat,
        f_gap=abs(f_hat - f),
        threshold_M=instance.threshold_M,
        m_hat=m_hat,
        m_hat_gap_scaled=m_gap,
        max_count_dev=max_dev,
        count_dev_scaled=max_dev * 2.0 * partition.bin_count / instance.n,
    )
