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

from .environment import Instance, MeanFunction, Record
from .policies import PolicyTrace

__all__ = [
    "RegretDecomposition",
    "DiagnosticsReport",
    "Baseline",
    "bin_mean",
    "bin_means_quadrature",
    "bin_means_empirical",
    "rank_bins",
    "make_baseline",
    "regret_total",
    "regret_decompose",
    "diagnostics",
]


# ---------------------------------------------------------------------------
# Bin means
# ---------------------------------------------------------------------------


def bin_mean(f: MeanFunction, lo, hi) -> float:
    """Average of the mean function over an axis-aligned bin, exact for
    every kind (``MeanFunction.box_mean``)."""
    lo = np.atleast_1d(np.asarray(lo, dtype=np.float64))
    hi = np.atleast_1d(np.asarray(hi, dtype=np.float64))
    if lo.shape != (f.dim,) or hi.shape != lo.shape or not np.all(
        (0 <= lo) & (lo < hi) & (hi <= 1)
    ):
        raise ValueError("bin bounds must be dim values with 0 <= lo < hi <= 1")
    return float(f.box_mean(lo, hi))


def bin_means_quadrature(f: MeanFunction, partition) -> np.ndarray:
    """Bin means of the true mean function for every bin of a partition."""
    out = np.empty(partition.bin_count)
    for b in range(partition.bin_count):
        out[b] = bin_mean(f, *partition.bin_bounds(b))
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


def rank_bins(partition, bin_means, t_budget: int) -> tuple[np.ndarray, int]:
    """The discretised oracle's ranking: bin ids by decreasing bin mean,
    ties to the lower id, and f_hat, the number of leading bins a budget
    of T empties.  With N_i the arm count of the i-th ranked bin, f_hat is
    the unique f with N_1 + ... + N_f < T <= N_1 + ... + N_{f+1}, which is
    0 when the first bin alone covers the budget."""
    bin_means = np.asarray(bin_means, dtype=np.float64)
    if bin_means.size != partition.bin_count:
        raise ValueError("one bin mean per bin required")
    if not 1 <= t_budget <= partition.n_arms:
        raise ValueError("the budget must lie in [1, arm count]")
    order = np.argsort(-bin_means, kind="stable")
    return order, int(np.searchsorted(np.cumsum(partition.counts[order]), t_budget))


# ---------------------------------------------------------------------------
# Regret
# ---------------------------------------------------------------------------


def _pull_mask(instance: Instance, trace) -> np.ndarray:
    """The arms a trace pulled, as a mask; it must pull T distinct arms."""
    pulled = np.asarray(trace.pulled)
    if pulled.size != instance.T:
        raise ValueError(f"trace length {pulled.size} != budget {instance.T}")
    mask = np.zeros(instance.n, dtype=bool)
    mask[pulled] = True
    if int(mask.sum()) != pulled.size:
        raise ValueError("trace contains duplicate arm indices")
    return mask


def regret_total(instance: Instance, trace) -> float:
    """Sum of the T largest true means minus the true means of the pulls."""
    mask = _pull_mask(instance, trace)
    return instance.top_mean_sum() - float(np.compress(mask, instance.true_means).sum())


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


def regret_decompose(instance: Instance, baseline: Baseline, trace) -> RegretDecomposition:
    """Arm-level decomposition of a trace against the discretised oracle's
    reference run in ``baseline``, which must come from the same instance."""
    means = instance.true_means
    report = baseline.report
    m_thresh = report.threshold_M
    in_phi = _pull_mask(instance, trace)

    # np.compress picks the masked means in ascending arm order, as means[mask] does.
    r_opt = float(np.sum(np.compress(baseline.top & ~in_phi, means) - m_thresh))
    r_boundary = float(np.sum(np.compress(baseline.kept & ~in_phi, means) - m_thresh)) + float(
        np.sum(m_thresh - np.compress(baseline.left & in_phi, means))
    )
    r_subopt = float(np.sum(m_thresh - np.compress(baseline.low & in_phi, means)))

    s_star = instance.top_mean_sum()
    s_phi = float(np.compress(in_phi, means).sum())

    return RegretDecomposition(
        r_total=s_star - s_phi,
        r_disc=s_star - baseline.s_phid,
        r_fmab=baseline.s_phid - s_phi,
        r_opt=r_opt,
        r_subopt=r_subopt,
        r_boundary=r_boundary,
        f_hat=report.f_hat,
        f=report.f,
        m_hat=report.m_hat,
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


def diagnostics(instance: Instance, partition, f_hat: int) -> DiagnosticsReport:
    """Pure report of boundary, threshold and occupancy diagnostics."""
    f = math.floor(instance.p * partition.bin_count + 1e-9)
    m_hat = float(instance.true_means[instance.star_order()].min())  # the T-th largest mean
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


@dataclass(frozen=True)
class Baseline:
    """The discretised oracle's reference run at one (N, rep, K) and what
    every policy's decomposition reads from it: its pulled-mean sum, arm
    masks of the f_hat best bins (``top``), the bins ranked below the
    boundary bin (``low``) and the boundary bin's arms the reference
    pulled (``kept``) and left (``left``), and the diagnostics report."""

    reference: PolicyTrace
    s_phid: float
    top: np.ndarray
    low: np.ndarray
    kept: np.ndarray
    left: np.ndarray
    report: DiagnosticsReport


def make_baseline(instance: Instance, partition, order, f_hat: int, reference) -> Baseline:
    """The baseline of ``policies.oracle_discrete``'s run under the ranking
    ``order, f_hat`` that ``rank_bins`` gives for this partition."""
    top_bins = np.zeros(partition.bin_count, dtype=bool)
    top_bins[order[:f_hat]] = True
    top = top_bins[partition.assignment]
    boundary = partition.assignment == order[f_hat]
    in_phid = _pull_mask(instance, reference)
    return Baseline(reference, float(np.compress(in_phid, instance.true_means).sum()), top,
                    ~(top | boundary), boundary & in_phid, boundary & ~in_phid,
                    diagnostics(instance, partition, f_hat))
