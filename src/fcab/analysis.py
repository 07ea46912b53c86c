"""Regret computation and its exact four-term decomposition.

Total regret (against the greedy oracle) splits exactly into a
discretisation term (the regret of the discretised oracle) plus the cost
of learning the induced finite bandit: the mean sum of the arms the
oracle's reference run pulled and the run missed, less that of the arms
the run pulled instead (both pull T arms).  Split at the bin straddling
the budget, that cost is the value left in the best bins, the churn in
the boundary bin, and the price of pulls in worse bins.  Both identities
hold for any trace and threshold value because the threshold terms cancel
against the matching pull counts; they are cross-checks, not assumptions.

All regrets are computed from true means, never sampled rewards, and all
arm-mean sums are accumulated in ascending arm-index order so that equal
pull sets reproduce the same float, making oracle regret exactly zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import policies
from .environment import Instance, MeanFunction

__all__ = [
    "RegretDecomposition",
    "DiagnosticsReport",
    "Baseline",
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


def bin_means_quadrature(f: MeanFunction, partition) -> np.ndarray:
    """Bin means of the true mean function for every bin of a partition,
    exact for every kind (``MeanFunction.box_mean``)."""
    return np.array([f.box_mean(lo, hi) for lo, hi in zip(*partition.bin_bounds())], float)


def bin_means_empirical(instance: Instance, partition) -> np.ndarray:
    """Within-bin averages of the true arm means; empty bins report 0."""
    sums = np.bincount(
        partition.assignment, weights=instance.true_means, minlength=partition.bin_count
    )
    return sums / np.maximum(partition.counts, 1)


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
    """The trace's pull mask, which must be N long and hold T arms.  Reads
    the pull set alone, so it never runs the trace's builder."""
    mask = trace.mask
    if mask.size != instance.n:
        raise ValueError(f"trace mask length {mask.size} != arm count {instance.n}")
    held = np.count_nonzero(mask)
    if held != instance.T:
        raise ValueError(f"trace mask holds {held} arms != budget {instance.T}")
    return mask


def regret_total(instance: Instance, trace) -> float:
    """Sum of the T largest true means minus the true means of the pulls."""
    mask = _pull_mask(instance, trace)
    return instance.top_mean_sum() - float(np.compress(mask, instance.true_means).sum())


@dataclass(frozen=True)
class RegretDecomposition:
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


def regret_decompose(instance: Instance, baseline: Baseline, trace) -> RegretDecomposition:
    """Arm-level decomposition of a trace against the discretised oracle's
    reference run in ``baseline``, which must come from the same instance:
    the arms the reference pulled and the trace missed, and those the trace
    pulled instead, each split at the boundary bin.  For the reference
    itself, the baseline's pulled-mean sum serves, so no trace has it
    computed twice."""
    means = instance.true_means
    m_thresh = baseline.report.threshold_M
    pulled, boundary = baseline.reference.mask, baseline.boundary
    if trace is baseline.reference:
        in_phi, s_phi = pulled, baseline.s_phid
    else:
        in_phi = _pull_mask(instance, trace)
        s_phi = float(np.compress(in_phi, means).sum())
    missed, extra = pulled > in_phi, in_phi > pulled  # for bools, a > b is a & ~b

    # np.compress copies the masked means in ascending arm order, as
    # means[mask] does, so M is subtracted from that copy in place.
    def above(mask):  # sum of m - M over the masked arms
        x = np.compress(mask, means)
        x -= m_thresh
        return float(np.sum(x))

    def below(mask):  # sum of M - m over the masked arms
        x = np.compress(mask, means)
        np.subtract(m_thresh, x, out=x)
        return float(np.sum(x))

    r_opt = above(missed > boundary)
    r_boundary = above(missed & boundary) + below(extra & boundary)
    r_subopt = below(extra > boundary)

    s_star = instance.top_mean_sum()

    return RegretDecomposition(
        r_total=s_star - s_phi,
        r_disc=s_star - baseline.s_phid,
        r_fmab=baseline.s_phid - s_phi,
        r_opt=r_opt,
        r_subopt=r_subopt,
        r_boundary=r_boundary,
    )


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiagnosticsReport:
    """Runtime quantities tracked against their concentration scales.

    ``m_hat_gap_scaled`` is |M_hat - M| * K / L (None when L is 0: a
    ``Constant`` or a flat piecewise-linear mean), ``count_dev_scaled`` is
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


def diagnostics(instance: Instance, partition, f_hat: int, threshold_M) -> DiagnosticsReport:
    """Pure report of boundary, threshold and occupancy diagnostics."""
    f = math.floor(instance.p * partition.bin_count + 1e-9)
    m_hat = instance.cut_mean()
    max_dev = float(
        np.max(np.abs(partition.counts - instance.n / partition.bin_count))
    )
    lip = instance.mean.lipschitz_L
    if lip is not None and lip > 0:
        m_gap = abs(m_hat - threshold_M) * partition.k_per_axis / lip
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
        threshold_M=threshold_M,
        m_hat=m_hat,
        m_hat_gap_scaled=m_gap,
        max_count_dev=max_dev,
        count_dev_scaled=max_dev * 2.0 * partition.bin_count / instance.n,
    )


@dataclass(frozen=True)
class Baseline:
    """The discretised oracle's reference run at one (N, rep, K) and what
    every policy's decomposition reads from it: the reference's pull mask
    (its own ``mask``) and pulled-mean sum, the mask of the boundary bin's
    arms (``boundary``), and the diagnostics report.  ``s_phid`` is
    computed once here: the reference's decomposition reads it too."""

    reference: policies.PolicyTrace
    s_phid: float
    boundary: np.ndarray
    report: DiagnosticsReport


def make_baseline(instance: Instance, partition, bin_means, threshold_M, seed: int) -> Baseline:
    """The baseline of the discretised oracle's reference run, seeded by
    ``seed``, under the ranking ``rank_bins`` gives ``bin_means``, with
    its report at the threshold ``threshold_M``.  That run pulls every arm
    of the f_hat best bins, at least one arm of the boundary bin
    ``order[f_hat]`` and nothing else: the best bins' arms are those the
    reference pulled outside ``boundary``."""
    order, f_hat = rank_bins(partition, bin_means, instance.T)
    reference = policies.oracle_discrete(instance, partition, order, f_hat, seed)
    pulled = _pull_mask(instance, reference)
    # A Python int keeps the narrow bin ids from being widened.
    boundary = partition.assignment == int(order[f_hat])
    return Baseline(reference, float(np.compress(pulled, instance.true_means).sum()),
                    boundary, diagnostics(instance, partition, f_hat, threshold_M))
