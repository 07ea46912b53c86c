"""Problem instances for budgeted bandits over continuous covariates.

An instance consists of a set of one-shot arms described by covariates in
the unit cube, a mean-reward function mapping covariates to [0, 1], a
reward model with that conditional mean, and a pull budget T.  The
difficulty of an instance is organised around the threshold M, the
(1 - T/N)-level of the mean function: arms with mean at or above M are the
ones worth spending budget on.  Every mean kind gives M, and its average
over an axis-aligned box, in closed form.

The module also constructs the adversarial two-function instance pair used
by the lower-bound protocol (two piecewise-linear means differing only on
two narrow bumps around the threshold), and exact validators of the
weak-Lipschitz and margin regularity conditions for piecewise-linear means.
"""

from __future__ import annotations

import bisect
import inspect
import math
import typing
from dataclasses import InitVar, dataclass, field
from typing import Optional

import numpy as np

__all__ = [
    "ConfigError",
    "ArmSet",
    "MeanFunction",
    "Constant",
    "PiecewiseLinear",
    "Sinusoid",
    "Tabulated",
    "LowerBoundMember",
    "RewardModel",
    "Instance",
    "InstancePair",
    "ValidationReport",
    "sample_arms_uniform",
    "grid_arms",
    "compute_threshold_M",
    "make_lower_bound_pair",
    "verify_weak_lipschitz",
    "verify_margin",
    "bernoulli_kl",
    "mean_kl",
]

class ConfigError(ValueError):
    """Invalid configuration; carries every (json_path, message) pair found.

    A config type reports paths rooted at its own JSON object (``$.p``);
    the parser of an enclosing object moves them under its own path with
    ``under``.
    """

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(f"{p}: {m}" for p, m in self.errors))

    def __reduce__(self):
        # ``args`` holds the joined message; rebuild from the pairs.
        return ConfigError, (self.errors,)

    def under(self, path: str) -> "ConfigError":
        """The same errors with their root ``$`` replaced by ``path``."""
        return ConfigError([(path + p[1:], m) for p, m in self.errors])


_TYPE_NAMES = {
    int: "an integer", float: "a number", str: "a string", list: "a list", dict: "an object",
}


def _is(value, kind: type) -> bool:
    # Python's bool is an int, JSON's is not a number.
    return type(value) is kind or (kind is float and type(value) is int)


_FLOAT_MAX = float(np.finfo(np.float64).max)


def _field(data: dict, key: str, kind: type, errors: list, item=None):
    """``data[key]`` when it has the JSON type ``kind`` and, for a list,
    every entry the type ``item``; else None with the error added to
    ``errors``, "missing" for an absent key.  Integers are numbers
    (``float``) and come back as floats; a number must be finite as a
    float (JSON parsing reads NaN, Infinity and integers of any size);
    booleans are nothing but booleans."""
    if key not in data:
        errors.append((f"$.{key}", "missing"))
        return None
    value = data[key]
    if not _is(value, kind):
        errors.append((f"$.{key}", f"must be {_TYPE_NAMES[kind]}"))
        return None
    if item is not None and not all(_is(v, item) for v in value):
        errors.append((f"$.{key}", f"every entry must be {_TYPE_NAMES[item]}"))
        return None
    numbers = value if item else [value]
    if float in (kind, item) and not all(abs(v) <= _FLOAT_MAX for v in numbers):
        errors.append((f"$.{key}", "must be finite"))
        return None
    return float(value) if kind is float else value


def from_json(ctor, spec: dict, keys=None):
    """``ctor`` called with the JSON object ``spec``, read by its signature.

    A parameter's JSON key is its name, or the key that ``keys`` maps to
    it.  ``int``, ``float`` and ``str`` are read by ``_field``,
    ``tuple[X, ...]`` is a list of X, and an ``Optional`` may be null.  Any
    other class is a nested object, read by the class's own ``from_json``
    if it has one and else by this function, with its errors reported
    under its key.  A parameter without a default is required.  Every
    unknown key, missing key and type error is raised at once, before
    ``ctor`` runs, which reports its range errors at its own parameters."""
    names = {name: key for key, name in (keys or {}).items()}
    params = {names.get(name, name): param
              for name, param in inspect.signature(ctor, eval_str=True).parameters.items()}
    errors = [(f"$.{key}", "unknown key") for key in spec if key not in params]
    kwargs = {}
    for key, param in params.items():
        if key in spec:
            kwargs[param.name] = _read(spec, key, param.annotation, errors)
        elif param.default is param.empty:
            errors.append((f"$.{key}", "missing"))
    if errors:
        raise ConfigError(errors)
    return ctor(**kwargs)


def _read(spec: dict, key: str, kind, errors: list):
    """``spec[key]`` read as the annotation ``kind`` (see ``from_json``)."""
    args = typing.get_args(kind)
    if type(None) in args:  # Optional[X]
        if spec[key] is None:
            return None
        kind, args = args[0], typing.get_args(args[0])
    if typing.get_origin(kind) is tuple:
        items = _field(spec, key, list, errors, item=args[0])
        return None if items is None else tuple(items)
    if kind in (int, float, str):
        return _field(spec, key, kind, errors)
    value = _field(spec, key, dict, errors)
    if value is None:
        return None
    try:
        return kind.from_json(value) if hasattr(kind, "from_json") else from_json(kind, value)
    except ConfigError as exc:
        errors.extend(exc.under(f"$.{key}").errors)
        return None


def from_kind(kinds: dict, spec: dict, what: str):
    """The object of ``kinds[spec["kind"]]``, read by ``from_json`` from
    the other keys of ``spec``; ``what`` names the family in an error."""
    errors: list = []
    kind = _field(spec, "kind", str, errors)
    if kind is not None and kind not in kinds:
        errors.append(("$.kind", f"unknown {what} kind {kind!r}; valid: {list(kinds)}"))
    if errors:
        raise ConfigError(errors)
    return from_json(kinds[kind], {key: v for key, v in spec.items() if key != "kind"})


# ---------------------------------------------------------------------------
# Arms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ArmSet:
    """Ordered collection of arm covariates in [0, 1]^dim."""

    covariates: np.ndarray  # shape (n, dim)

    def __post_init__(self):
        cov = np.asarray(self.covariates, dtype=np.float64)
        if cov.ndim != 2 or cov.shape[0] < 1 or cov.shape[1] < 1:
            raise ValueError("covariates must be a non-empty (n, dim) array")
        if not (cov.min() >= 0.0 and cov.max() <= 1.0):  # NaN fails it too
            raise ValueError("covariates must lie in the unit cube")
        cov.setflags(write=False)
        object.__setattr__(self, "covariates", cov)

    @property
    def n(self) -> int:
        return self.covariates.shape[0]

    @property
    def dim(self) -> int:
        return self.covariates.shape[1]


# The largest N * dim a config may ask for.  A trial holds about 88 bytes
# per arm at dim 1 and 126 at dim 3 (peak RSS over N = 2^18..2^20 with all
# five policies at p = 0.5; 40 at dim 1 at T = 0.5 N^0.67, 32 without
# UCBF, the lower-bound protocol about 80), so at most about 22 GiB.  Past
# the cap a trial could only fail to allocate, or worse.
MAX_ARM_COORDINATES = 2**28


def sample_arms_uniform(n: int, dim: int, seed: int) -> ArmSet:
    """Draw ``n`` covariates i.i.d. uniform on [0, 1]^dim, reproducibly;
    ``ArmSet`` rejects an empty draw."""
    rng = np.random.default_rng(seed)
    return ArmSet(rng.random((n, dim)))


def grid_arms(n: int) -> ArmSet:
    """Deterministic one-dimensional arms at i/n for i = 1..n; ``ArmSet``
    rejects n < 1."""
    x = np.arange(1, n + 1, dtype=np.float64) / n
    return ArmSet(x.reshape(n, 1))


# ---------------------------------------------------------------------------
# Mean-reward functions
# ---------------------------------------------------------------------------


def _as_points(x, dim: int) -> np.ndarray:
    """Input as an (n, dim) array of points; in one dimension a flat array
    of n covariates is accepted too."""
    a = np.asarray(x, dtype=np.float64)
    if dim == 1 and a.ndim == 1:
        return a.reshape(-1, 1)
    if a.ndim == 2 and a.shape[1] == dim:
        return a
    raise ValueError(f"expected points of dimension {dim}, got shape {a.shape}")


class MeanFunction:
    """Evaluable mean-reward map [0, 1]^dim -> [0, 1] with regularity
    metadata and two exact integrals.

    ``lipschitz_L`` carries the constant of the weak-Lipschitz condition
    when it is known for the function.  ``threshold`` and ``box_mean`` are
    closed forms, not numerical estimates, for every kind.
    """

    dim: int = 1
    lipschitz_L: Optional[float] = None

    def evaluate(self, x) -> np.ndarray:
        """The means at an (n, dim) array of points, or in one dimension at
        a flat array of n covariates: an array of n values."""
        raise NotImplementedError

    def threshold(self, p: float) -> float:
        """M = inf{A : measure{m >= A} < p} for p in (0, 1], the measure
        uniform on the cube: a plateau straddling p gives its value, p = 1
        the minimum."""
        raise NotImplementedError

    def box_mean(self, lo: np.ndarray, hi: np.ndarray) -> float:
        """The mean over the box of axis bounds lo < hi, arrays of dim values."""
        raise NotImplementedError

    @staticmethod
    def from_json(spec: dict) -> "MeanFunction":
        """A mean function from its JSON object: ``kind`` and the parameters
        of that kind's constructor.  Error paths start at that object."""
        return from_kind(_MEAN_KINDS, spec, "mean function")


@dataclass(frozen=True)
class Constant(MeanFunction):
    """m(x) = value everywhere."""

    value: float = 0.5
    dim: int = 1

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ConfigError([("$.value", "constant mean must lie in [0, 1]")])
        if not self.dim >= 1:
            raise ConfigError([("$.dim", "dimension must be positive")])
        object.__setattr__(self, "lipschitz_L", 0.0)

    def evaluate(self, x):
        return np.full(_as_points(x, self.dim).shape[0], self.value, dtype=np.float64)

    def threshold(self, p):
        return self.value

    def box_mean(self, lo, hi):
        return self.value


@dataclass(frozen=True)
class PiecewiseLinear(MeanFunction):
    """Linear interpolation through (breakpoints, values) on [0, 1].

    Breakpoints must be strictly increasing and span [0, 1]; values must
    stay inside [0, 1].  The global Lipschitz constant (max absolute slope)
    is derived when not supplied; a supplied one must be nonnegative.
    """

    breakpoints: tuple[float, ...] = ()
    values: tuple[float, ...] = ()
    lipschitz_L: Optional[float] = None
    dim: int = field(default=1, init=False)

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=np.float64)
        vv = np.asarray(self.values, dtype=np.float64)
        if bp.ndim != 1 or bp.size < 2 or bp.shape != vv.shape:
            raise ConfigError([("$.breakpoints", "breakpoints and values must be 1-d of "
                                                 "equal length >= 2")])
        if bp[0] != 0.0 or bp[-1] != 1.0:
            raise ConfigError([("$.breakpoints", "breakpoints must span [0, 1]")])
        if not np.all(np.diff(bp) > 0):  # NaN fails it too
            raise ConfigError([("$.breakpoints", "breakpoints must be strictly increasing")])
        if not (vv.min() >= 0.0 and vv.max() <= 1.0):
            raise ConfigError([("$.values", "values must lie in [0, 1]")])
        if self.lipschitz_L is not None and not self.lipschitz_L >= 0:
            raise ConfigError([("$.lipschitz_L", "must be nonnegative")])
        object.__setattr__(self, "breakpoints", tuple(bp.tolist()))
        object.__setattr__(self, "values", tuple(vv.tolist()))
        if self.lipschitz_L is None:
            with np.errstate(over="ignore"):
                lip = float(np.max(np.abs(np.diff(vv) / np.diff(bp))))
            if not math.isfinite(lip):
                raise ConfigError([("$.breakpoints", "breakpoints too close: a slope overflows")])
            object.__setattr__(self, "lipschitz_L", lip)

    def evaluate(self, x):
        return np.interp(_as_points(x, 1)[:, 0], self.breakpoints, self.values)

    def _measures(self, levels: np.ndarray):
        """measure{m >= A} and measure{m > A} at each level A of a flat
        array: a sloped piece contributes the share of its length on which
        m reaches A, a flat piece its whole length or nothing."""
        v = np.asarray(self.values)
        width = np.diff(self.breakpoints)
        lo, hi = np.minimum(v[:-1], v[1:]), np.maximum(v[:-1], v[1:])
        flat = hi == lo
        levels = levels[:, None]
        # The flat pieces' ramps, and a subnormal range's overflow, which clips.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            ramp = np.clip((hi - levels) / (hi - lo), 0.0, 1.0)
        at_or_above = np.sum(np.where(flat, hi >= levels, ramp) * width, axis=1)
        above = np.sum(np.where(flat, hi > levels, ramp) * width, axis=1)
        return at_or_above, above

    def threshold(self, p):
        # measure{m >= A} is linear in A between the sorted values u_j and
        # drops by a plateau's length at its value.  The computed
        # measure{m > A} never rises with A, so bisection on the levels finds
        # the first u_j with less than p above it (the last level has
        # nothing above it); then invert the piece that brackets p.
        levels = np.array(sorted(set(self.values)))  # np.unique would import numpy.ma
        j = bisect.bisect_left(range(levels.size), True,
                               key=lambda i: self._measures(levels[i:i + 1])[1][0] < p)
        if j == 0:
            return float(levels[0])
        at_or_above, above = self._measures(levels[j - 1:j + 1])
        if at_or_above[1] >= p:
            return float(levels[j])
        # Linear on (u_{j-1}, u_j], from above[j-1] >= p to at_or_above[j] < p.
        share = (above[0] - p) / (above[0] - at_or_above[1])
        return float(levels[j - 1] + share * (levels[j] - levels[j - 1]))

    def box_mean(self, lo, hi):
        lo, hi = float(lo[0]), float(hi[0])
        knots = np.array([lo, *(b for b in self.breakpoints if lo < b < hi), hi])
        vals = np.interp(knots, self.breakpoints, self.values)
        return float(np.trapezoid(vals, knots)) / (hi - lo)


@dataclass(frozen=True)
class Sinusoid(MeanFunction):
    """m(x) = offset + amplitude * sin(2 pi frequency * u).

    For one-dimensional inputs u is the covariate itself; in higher
    dimension u is the coordinate average, which keeps the phase argument
    in [0, 1].  The range offset +- |amplitude| must stay inside [0, 1].
    """

    amplitude: float = 0.4
    frequency: float = 1.0
    offset: float = 0.5
    dim: int = 1

    def __post_init__(self):
        if not self.frequency > 0:  # NaN fails it too
            raise ConfigError([("$.frequency", "frequency must be positive")])
        if not self.dim >= 1:
            raise ConfigError([("$.dim", "dimension must be positive")])
        lo = self.offset - abs(self.amplitude)
        hi = self.offset + abs(self.amplitude)
        if not (lo >= 0.0 and hi <= 1.0):
            raise ConfigError([("$.amplitude", "sinusoid range must stay inside [0, 1]")])
        # Euclidean gradient norm of the coordinate-average phase argument.
        lip = abs(self.amplitude) * 2.0 * math.pi * self.frequency / math.sqrt(self.dim)
        object.__setattr__(self, "lipschitz_L", lip)

    def evaluate(self, x):
        pts = _as_points(x, self.dim)
        u = pts[:, 0] if self.dim == 1 else pts.mean(axis=1)
        return self.offset + self.amplitude * np.sin(2.0 * math.pi * self.frequency * u)

    def threshold(self, p):
        """Bisection on the level, down to adjacent floats."""
        a = abs(self.amplitude)
        if a == 0.0:
            return self.offset
        lo, hi = self.offset - a, self.offset + a  # exceedance 1 >= p, and 0 < p
        while lo < (mid := (lo + hi) / 2.0) < hi:
            lo, hi = (lo, mid) if self._exceedance(mid) < p else (mid, hi)
        return hi

    def _exceedance(self, level):
        """measure{m >= level}: the chance that the phase y = frequency * u
        lies where the sine reaches s = (level - offset) / |amplitude|, on
        k + t <= y + c <= k + 1/2 - t with t = arcsin(s) / (2 pi), where c
        is 1/2 for a negative amplitude and 0 else."""
        a, c, f = abs(self.amplitude), 0.5 * (self.amplitude < 0), self.frequency
        t = math.asin(min(max((level - self.offset) / a, -1.0), 1.0)) / (2.0 * math.pi)
        total = 0.0
        for k in range(math.ceil(f) + 2):
            u0, u1 = max((k - c + t) / f, 0.0), min((k - c + 0.5 - t) / f, 1.0)
            if u0 < u1:
                total += _mean_mass(u0, u1, self.dim)
        return total

    def box_mean(self, lo, hi):
        # The mean of e^(i theta x) over [lo, hi] is e^(i theta c) sin(h) / h,
        # c the midpoint, h = theta (hi - lo) / 2; m's mean takes the imaginary
        # part of the product over the axes, theta = 2 pi frequency / dim.
        theta = 2.0 * math.pi * self.frequency / self.dim
        h = theta * (hi - lo) / 2.0
        phase = math.sin(theta * float(np.sum(lo + hi)) / 2.0)
        return self.offset + self.amplitude * phase * float(np.prod(np.sin(h) / h))


def _mean_mass(u0: float, u1: float, dim: int) -> float:
    """P(u0 < coordinate mean of ``dim`` uniforms <= u1), rounded once: u1 - u0
    in one dimension, else the difference of two Irwin-Hall CDFs, exact (its
    alternating sum cancels in floats as dim grows).  With u = n / d for the
    larger of the two floats' power-of-two denominators d, each CDF is
    sum over k <= dim u of (-1)^k C(dim, k) (dim n - k d)^dim over the common
    denominator d^dim dim!, so the numerators stay integers."""
    if dim == 1:
        return u1 - u0
    (n0, d0), (n1, d1) = u0.as_integer_ratio(), u1.as_integer_ratio()
    d = max(d0, d1)

    def numerator(n):
        x = dim * n
        return sum((-1) ** k * math.comb(dim, k) * (x - k * d) ** dim for k in range(x // d + 1))

    return (numerator(n1 * (d // d1)) - numerator(n0 * (d // d0))) / (d**dim * math.factorial(dim))


def Tabulated(grid_values: tuple[float, ...] = ()) -> PiecewiseLinear:
    """Values on a uniform grid over [0, 1] (endpoints included), with
    linear interpolation in between: the piecewise-linear function with a
    breakpoint at each grid point; its errors are reported at the values."""
    try:
        return PiecewiseLinear(tuple(np.linspace(0.0, 1.0, np.size(grid_values))), grid_values)
    except ConfigError as exc:
        raise ConfigError([("$.grid_values", m) for _, m in exc.errors]) from None


def LowerBoundMember(
    role: int = 0,
    p: float = 0.5,
    l_tilde: float = 0.5,
    half_width: float = 0.01,
) -> PiecewiseLinear:
    """One member of the adversarial pair around the threshold 1/2.

    Both members climb linearly with slope ``l_tilde`` towards 1/2 at
    x0 = 1-p-2*half_width, then carry two bump segments of half-width
    ``half_width`` on [x0, 1-p] and [1-p, x1], x1 = 1-p+2*half_width, and
    climb away from 1/2 after x1.  The role decides the bump orientation:
    role 0 dips below 1/2 on the left bump and rises on the right one,
    role 1 is the mirror image.  The two roles agree pointwise outside
    [x0, x1] and share the threshold level 1/2 at the budget fraction p.
    """
    if role not in (0, 1):
        raise ConfigError([("$.role", "role must be 0 or 1")])
    if not 0.0 < p < 1.0:
        raise ConfigError([("$.p", "p must lie in (0, 1)")])
    if not 0.0 < 2.0 * half_width < min(p, 1.0 - p):
        raise ConfigError([("$.half_width", "bump width too large for this budget fraction")])
    if not 0.0 < l_tilde <= 0.5:
        raise ConfigError([("$.l_tilde", "slope must lie in (0, 0.5]")])
    x0 = 1.0 - p - 2.0 * half_width
    x1 = 1.0 - p + 2.0 * half_width
    bump = l_tilde * half_width
    mids = (0.5 - bump, 0.5, 0.5 + bump) if role == 0 else (0.5 + bump, 0.5, 0.5 - bump)
    return PiecewiseLinear(
        (0.0, x0, x0 + half_width, 1.0 - p, 1.0 - p + half_width, x1, 1.0),
        (0.5 - l_tilde * x0, 0.5, *mids, 0.5, 0.5 + l_tilde * (1.0 - x1)),
        lipschitz_L=l_tilde,
    )


_MEAN_KINDS = {
    "constant": Constant,
    "piecewise_linear": PiecewiseLinear,
    "sinusoid": Sinusoid,
    "tabulated": Tabulated,
    "lower_bound_member": LowerBoundMember,
}


# ---------------------------------------------------------------------------
# Reward models
# ---------------------------------------------------------------------------

BERNOULLI = "bernoulli"
CLIPPED_GAUSSIAN = "clipped_gaussian"


@dataclass(frozen=True)
class RewardModel:
    """Conditional reward distribution with values in [0, 1].

    ``bernoulli`` rewards hit the requested mean exactly.  The
    ``clipped_gaussian`` model adds centred Gaussian noise of scale
    ``sigma`` and clips the result to [0, 1]; clipping biases the
    conditional mean towards 1/2 by at most sigma * exp(-d^2 / (2 sigma^2))
    where d is the distance from the mean to the nearer endpoint, so it is
    only a faithful model away from the endpoints.
    """

    kind: str
    sigma: float = 0.0

    def __post_init__(self):
        if self.kind not in (BERNOULLI, CLIPPED_GAUSSIAN):
            raise ConfigError([("$.kind", f"unknown reward model {self.kind!r}")])
        if self.kind == CLIPPED_GAUSSIAN and not self.sigma > 0:
            raise ConfigError([("$.sigma", "clipped gaussian needs a positive sigma")])
        if self.kind == BERNOULLI and self.sigma != 0:
            raise ConfigError([("$.sigma", "bernoulli rewards take no sigma")])

    def sample(self, means: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Draw one reward per entry of ``means``."""
        means = np.asarray(means, dtype=np.float64)
        if means.size and not (means.min() >= 0.0 and means.max() <= 1.0):  # NaN fails
            raise ValueError("reward means must lie in [0, 1]")
        if self.kind == BERNOULLI:
            return (rng.random(means.shape) < means).astype(np.float64)
        with np.errstate(over="ignore"):  # an infinite draw clips as a large one does
            draw = means + self.sigma * rng.standard_normal(means.shape)
        return np.clip(draw, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Threshold
# ---------------------------------------------------------------------------


def compute_threshold_M(f: MeanFunction, p: float, resolution=None) -> float:
    """Threshold level M = inf{A : measure{m >= A} < p}, in closed form
    (``MeanFunction.threshold``).  ``resolution`` is accepted and ignored:
    ``bench/probe.py`` still passes one."""
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]")
    return float(f.threshold(p))


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------


@dataclass
class Instance:
    """A fully-specified budgeted bandit problem, checked on construction.

    The arms are a constructor argument only: ``p = T / N`` and
    ``true_means``, the mean at every covariate, are set from them, and
    the covariates are not kept (an instance has no arms attribute), so a
    caller that bins the arms keeps its own ``ArmSet``.  The threshold M,
    which depends on the mean and p alone, is not kept either.
    ``star_order`` is the greedy oracle's pull set (the T arms with the
    largest true means, ties to the lower arm index) in ascending arm
    index.  Its first call makes the selection and keeps its mask,
    ``star_mask()``, which the oracle policy and the regret computations
    reuse, and its cut, ``cut_mean``, the T-th largest mean.
    """

    arms: InitVar[ArmSet]
    mean: MeanFunction
    rewards: RewardModel
    T: int
    p: float = field(init=False)
    true_means: np.ndarray = field(init=False)
    _star: Optional[np.ndarray] = field(default=None, init=False, repr=False)
    _cut: Optional[float] = field(default=None, init=False, repr=False)
    _top_sum: Optional[float] = field(default=None, init=False, repr=False)

    def __post_init__(self, arms: ArmSet):
        if not 0 < self.T <= arms.n:
            raise ValueError("budget must satisfy 0 < T <= N")
        if self.mean.dim != arms.dim:
            raise ValueError("mean function dimension must match the covariates")
        self.p = self.T / arms.n
        self.true_means = self.mean.evaluate(arms.covariates)

    @property
    def n(self) -> int:
        return self.true_means.size

    def star_order(self) -> np.ndarray:
        """The T arms with the largest true means, in ascending arm index;
        of the arms whose mean equals the T-th largest, the lowest indices
        are taken.  O(N): no sort of the means.  The first call selects
        them and keeps the selection's mask; every call reads the indices
        from that mask."""
        if self._star is None:
            self._star, self._cut = _top_mask(self.true_means, self.T)
            self._star.setflags(write=False)
        return np.flatnonzero(self._star)

    def star_mask(self) -> np.ndarray:
        """The star set as a read-only N-long mask, the one ``star_order``
        selected (this calls it if it has not run)."""
        if self._star is None:
            self.star_order()
        return self._star

    def cut_mean(self) -> float:
        """The T-th largest true mean, the least mean of the star set: the
        cut value of ``star_order``'s selection, read without a gather."""
        self.star_mask()
        return self._cut

    def top_mean_sum(self) -> float:
        """Sum of the T largest true means, accumulated in ascending arm
        index order so that identical pull sets reproduce it bitwise."""
        if self._top_sum is None:
            self._top_sum = float(np.compress(self.star_mask(), self.true_means).sum())
        return self._top_sum


def _top_mask(values: np.ndarray, t: int) -> tuple[np.ndarray, float]:
    """Mask of the ``t`` largest values, the lowest positions first among
    values equal to the t-th largest: the first ``t`` positions of a stable
    descending sort, found by selection in O(n).  Also returns that t-th
    largest value, the cut.  Ties are scanned for only when they straddle
    the cut, and then the highest-position ones are dropped."""
    cut = values.size - t
    v = np.partition(values, cut)[cut]
    take = values >= v
    excess = np.count_nonzero(take) - t
    if excess:
        take[np.flatnonzero(values == v)[-excess:]] = False
    return take, float(v)


# ---------------------------------------------------------------------------
# Lower-bound pair
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InstancePair:
    """Adversarial pair of mean functions for the lower-bound protocol:
    ``make_lower_bound_pair``'s parameters, what they derive and the two
    members.  The protocol runs at ``N`` (the N the bump width was
    calibrated against) and ``p``, and ``validate`` checks the margin
    condition with ``margin_Q``."""

    p: float
    L: float  # the requested Lipschitz constant
    alpha_lb: float
    N: int
    l_tilde: float
    lb_half_width: float
    x0: float
    x1: float
    margin_Q: float
    m0: PiecewiseLinear
    m1: PiecewiseLinear

    @staticmethod
    def from_json(spec: dict) -> "InstancePair":
        """A pair from its JSON object: ``make_lower_bound_pair``'s parameters."""
        return from_json(make_lower_bound_pair, spec)


def make_lower_bound_pair(p: float, L: float, alpha_lb: float, N: int) -> InstancePair:
    """Build the two-bump pair calibrated so the reward histories stay
    statistically close (per-arm Bernoulli KL summing to O(alpha^3)).

    The bump half-width is alpha_lb * (N * L~^2)^(-1/3) with L~ = min(L, 0.5).
    ``alpha_lb`` must lie in (20 N^(-2/3), 0.5] and the bumps must fit
    strictly between 0 and 1; violating either signals that N is too small
    for this (p, L).  Errors carry the JSON path of the parameter at fault.
    """
    errors = []
    if not 0.0 < p < 1.0:
        errors.append(("$.p", "must lie in (0, 1)"))
    if not L > 0:
        errors.append(("$.L", "must be positive"))
    elif L * L == 0.0:
        errors.append(("$.L", "too small: L^2 underflows to 0"))
    if not N >= 1:
        errors.append(("$.N", "must be positive"))
    elif N > MAX_ARM_COORDINATES:
        errors.append(("$.N", f"may not exceed {MAX_ARM_COORDINATES} arms"))
    if errors:
        raise ConfigError(errors)
    lo = 20.0 * N ** (-2.0 / 3.0)
    if not lo < alpha_lb <= 0.5:
        raise ConfigError(
            [("$.alpha_lb", f"must lie in ({lo:.6g}, 0.5]; N is too small for this choice")]
        )
    l_tilde = min(L, 0.5)
    half_width = alpha_lb * (N * l_tilde**2) ** (-1.0 / 3.0)
    if 2.0 * half_width >= min(p, 1.0 - p):
        raise ConfigError([(
            "$.alpha_lb",
            "bump width does not fit between the budget fraction and its "
            "complement; N is too small for this (p, L)",
        )])
    return InstancePair(
        p=p,
        L=L,
        alpha_lb=alpha_lb,
        N=N,
        l_tilde=l_tilde,
        lb_half_width=half_width,
        x0=1.0 - p - 2.0 * half_width,
        x1=1.0 - p + 2.0 * half_width,
        margin_Q=6.0 * max(1.0 / L, 2.0),
        m0=LowerBoundMember(role=0, p=p, l_tilde=l_tilde, half_width=half_width),
        m1=LowerBoundMember(role=1, p=p, l_tilde=l_tilde, half_width=half_width),
    )


# ---------------------------------------------------------------------------
# Assumption validators
# ---------------------------------------------------------------------------


@dataclass
class ValidationReport:
    """Outcome of an exact regularity check on a piecewise-linear mean.

    Violations are content, not errors: ``passed`` is False when the worst
    violation exceeds ``slack``, float64 machine epsilon, which absorbs
    the rounding of values and measures in [0, 1].
    """

    check: str
    passed: bool
    worst_violation: float
    slack: float
    details: dict


_SLACK = float(np.finfo(np.float64).eps)


def _piecewise_linear(f: MeanFunction, **constants: float) -> PiecewiseLinear:
    """``f``, if it is of the one kind the validators decide exactly, and
    every named constant is finite: a NaN or infinite one is a bad call,
    not a failed certificate."""
    if not isinstance(f, PiecewiseLinear):
        raise ValueError("the validators take a one-dimensional piecewise-linear mean")
    for name, value in constants.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    return f


def verify_weak_lipschitz(f: MeanFunction, L: float) -> ValidationReport:
    """Certify |m(x) - m(y)| <= max(|M - m(x)|, L * |x - y|) for every M by
    checking |dv| <= L * dx on every segment: then m is L-Lipschitz.

    ``worst_violation`` is the largest segment excess |dv| - L * dx, the
    worst violation on a pair within one segment.  A failed certificate
    does not prove the weak condition false.
    """
    f = _piecewise_linear(f, L=L)
    x = np.asarray(f.breakpoints)
    excess = np.abs(np.diff(f.values)) - L * np.diff(x)
    k = int(np.argmax(excess))
    worst = float(excess[k])
    return ValidationReport(
        check="weak_lipschitz",
        passed=worst <= _SLACK,
        worst_violation=worst,
        slack=_SLACK,
        details={"L": L, "segments": int(excess.size),
                 "worst_x": float(x[k]), "worst_y": float(x[k + 1])},
    )


def verify_margin(f: MeanFunction, M: float, Q: float, eps_values) -> ValidationReport:
    """Check measure{x : |M - m(x)| <= eps} <= Q * eps exactly, the measure
    being measure{m >= M - eps} - measure{m > M + eps}.
    """
    f = _piecewise_linear(f, M=M, Q=Q)
    eps = np.array(sorted(float(e) for e in eps_values))
    if not eps.size:
        raise ValueError("need at least one epsilon")
    if not np.all((0.0 < eps) & (eps < 1.0)):
        raise ValueError("each epsilon must lie in (0, 1)")
    measure = f._measures(M - eps)[0] - f._measures(M + eps)[1]
    bound = Q * eps
    worst = float(np.max(measure - bound))
    rows = [{"eps": e, "measure": m, "bound": b}
            for e, m, b in zip(eps.tolist(), measure.tolist(), bound.tolist())]
    return ValidationReport(
        check="margin",
        passed=worst <= _SLACK,
        worst_violation=worst,
        slack=_SLACK,
        details={"Q": Q, "M": M, "per_eps": rows},
    )


# ---------------------------------------------------------------------------
# Divergences
# ---------------------------------------------------------------------------


def bernoulli_kl(p, q):
    """KL divergence between Bernoulli(p) and Bernoulli(q), elementwise
    over arrays.

    Endpoint arguments are rejected; the divergence is only finite on the
    open interval.
    """
    if not np.all((0.0 < p) & (p < 1.0) & (0.0 < q) & (q < 1.0)):  # NaN fails it too
        raise ValueError("Bernoulli parameters must lie strictly inside (0, 1)")
    out = p * np.log(p / q) + (1.0 - p) * np.log((1.0 - p) / (1.0 - q))
    # the divergence is nonnegative; clamp the few-ulp rounding residue
    # that appears when p and q nearly coincide
    return np.maximum(out, 0.0)


def mean_kl(v0: np.ndarray, v1: np.ndarray) -> float:
    """Sum of Bernoulli KL divergences between two arrays of arm means,
    over the arms where they differ."""
    mask = v0 != v1
    return float(np.sum(bernoulli_kl(v0[mask], v1[mask])))
