"""One-dimensional distributions and target/proposal pairs.

Three families are supported: Gaussian, Uniform, and disjoint mixtures of
uniforms. Every family exposes an exact CDF, an inverse CDF accurate to
better than 1e-9 in probability, and a log density. A :class:`PairSpec`
bundles a target together with an absolutely continuous proposal and owns
the density-ratio machinery (pointwise log ratio, ratio mode, regional
upper bounds, and closed-form KL / Renyi-infinity divergences) that the
search coders consume.

Regions are open intervals (low, high) with extended-real endpoints. Restricted
sampling maps a unit uniform through the proposal CDF, so an encoder and
a decoder that walk the same region arithmetic reproduce samples bit for
bit.
"""

from __future__ import annotations

import math

from .errors import (
    AbsoluteContinuityError,
    DegenerateRegionError,
    DomainError,
    Frozen,
    UnboundedRatioError,
)

_SQRT2 = math.sqrt(2.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

INF = math.inf
_set = object.__setattr__


class Distribution1D:
    """Base class: CDF/inverse-CDF/log-density over the real line."""

    __slots__ = ()

    def cdf(self, x: float) -> float:
        raise NotImplementedError

    def inv_cdf(self, u: float) -> float:
        raise NotImplementedError

    def inv_cdfs(self, us: list[float]) -> list[float]:
        """``[self.inv_cdf(u) for u in us]``: a family's batch form equals
        this bit for bit and refuses what it refuses."""
        inv_cdf = self.inv_cdf
        return [inv_cdf(u) for u in us]

    def quantiles_differ(self, ulow: float, uhigh: float) -> bool:
        """``self.inv_cdf(ulow) < self.inv_cdf(uhigh)``: a family may
        answer without the quantiles where a bound decides, and otherwise
        computes them, equal to this in value and in what it refuses."""
        return self.inv_cdf(ulow) < self.inv_cdf(uhigh)

    def log_pdf(self, x: float) -> float:
        raise NotImplementedError

    def support(self) -> tuple[float, float]:
        """(low, high), the ends of the support; either may be infinite."""
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError

    @staticmethod
    def _check_unit(u: float) -> None:
        if not 0.0 < u < 1.0:
            raise DomainError(f"inverse CDF needs u in (0, 1), got {u}")


# Acklam's rational approximation to the standard normal quantile.
# Max relative error ~1.15e-9 on its own; one residual correction step
# against the erfc-based CDF below pushes |cdf(inv_cdf(u)) - u| to the
# 1e-15 scale away from the extreme tails. The quantile runs once per
# Gaussian draw, so its coefficients are literals and its constants and
# math functions module globals. Its operations and their order must not
# change: decoded samples depend on every bit, and a test pins them
# against a frozen copy of the formula.
_ACK_LOW = 0.02425
_ACK_HIGH = 1.0 - _ACK_LOW
_SQRT_2PI = math.sqrt(2.0 * math.pi)
# The range on which Gaussian.quantiles_differ's bound holds: the CDF ends
# of every inner dyadic node down to depth 54
_U_MIN, _U_MAX = 2.0**-53, 1.0 - 2.0**-53
_sqrt, _log, _log1p, _exp, _erfc = math.sqrt, math.log, math.log1p, math.exp, math.erfc


def _std_normal_cdf(z: float) -> float:
    return 0.5 * _erfc(-z / _SQRT2)


def _std_normal_quantile(u: float) -> float:
    """Standard normal inverse CDF for u in (0, 1), which the caller
    checks: rational approximation plus one residual correction step
    evaluated through erfc. Below about u = 1e-310 the step's exp
    overflows, and the quantile is refused with DomainError."""
    if _ACK_LOW <= u <= _ACK_HIGH:
        q = u - 0.5
        r = q * q
        z = ((((((-3.969683028665376e+01 * r + 2.209460984245205e+02) * r
                 - 2.759285104469687e+02) * r + 1.383577518672690e+02) * r
               - 3.066479806614716e+01) * r + 2.506628277459239e+00) * q
             / (((((-5.447609879822406e+01 * r + 1.615858368580409e+02) * r
                   - 1.556989798598866e+02) * r + 6.680131188771972e+01) * r
                 - 1.328068155288572e+01) * r + 1.0))
    else:  # a tail: the lower tail's rational, negated in the upper one (exactly)
        q = _sqrt(-2.0 * (_log(u) if u < _ACK_LOW else _log1p(-u)))
        z = ((((((-7.784894002430293e-03 * q - 3.223964580411365e-01) * q
                 - 2.400758277161838e+00) * q - 2.549732539343734e+00) * q
               + 4.374664141464968e+00) * q + 2.938163982698783e+00)
             / ((((7.784695709041462e-03 * q + 3.224671290700398e-01) * q
                  + 2.445134137142996e+00) * q + 3.754408661907416e+00) * q + 1.0))
        if u > _ACK_HIGH:
            z = -z
    # Residual in probability, formed on whichever side avoids cancellation.
    if u <= 0.5:
        resid = 0.5 * _erfc(-z / _SQRT2) - u
    else:
        resid = (1.0 - u) - 0.5 * _erfc(z / _SQRT2)
    # One Newton-type step with a second-order (Halley) correction term.
    try:  # on CPython 3.11+ a no-op and a jump unless it raises
        t = resid * _SQRT_2PI * _exp(0.5 * z * z)
    except OverflowError:  # only a u below about 1e-310 takes z past -37.7
        raise DomainError(f"the normal quantile's residual step overflows at u = {u}") from None
    return z - t / (1.0 + 0.5 * z * t)


class Gaussian(Distribution1D, Frozen):
    """Normal distribution with given mean and variance. ``std`` is
    derived once, here, and takes no part in equality or ``to_dict``."""

    __slots__ = ("mean", "variance", "std")
    _fields = ("mean", "variance")

    def __init__(self, mean: float, variance: float) -> None:
        if not variance > 0.0 or not math.isfinite(variance):
            raise DomainError(f"variance must be finite and positive, got {variance}")
        if not math.isfinite(mean):
            raise DomainError(f"mean must be finite, got {mean}")
        self._store(mean, variance)
        _set(self, "std", math.sqrt(variance))

    def cdf(self, x: float) -> float:
        if x == -INF:
            return 0.0
        if x == INF:
            return 1.0
        return _std_normal_cdf((x - self.mean) / self.std)

    def inv_cdf(self, u: float) -> float:
        if not 0.0 < u < 1.0:  # also refuses NaN
            raise DomainError(f"inverse CDF needs u in (0, 1), got {u}")
        return self.mean + self.std * _std_normal_quantile(u)

    def quantiles_differ(self, ulow: float, uhigh: float) -> bool:
        """``inv_cdf(ulow) < inv_cdf(uhigh)``, True without a quantile when
        ulow and uhigh lie in [2^-53, 1 - 2^-53] and

            std * (2.5 * (uhigh - ulow) - 2e-9) > 2^-49 * (|mean| + 9 * std).

        On that range ``_std_normal_quantile`` is within 1e-9 of the exact
        quantile (a test pins its error below 1e-12 against
        ``statistics.NormalDist``) and less than 9 in magnitude. The exact quantile's slope, 1 / pdf, is at least
        sqrt(2 pi) > 2.5, so the two computed standard quantiles differ by
        more than 2.5 * (uhigh - ulow) - 2e-9. Each end, mean + std * q,
        rounds by at most about 2^-52 * (|mean| + 9 * std), and the right
        side covers both ends with 4x slack, so the computed ends keep their
        order. Where the test fails, or overflows to inf, the quantiles
        decide."""
        std = self.std
        if (_U_MIN <= ulow and uhigh <= _U_MAX
                and std * (2.5 * (uhigh - ulow) - 2e-9) > 2**-49 * (abs(self.mean) + 9.0 * std)):
            return True
        return self.inv_cdf(ulow) < self.inv_cdf(uhigh)

    def inv_cdfs(self, us: list[float]) -> list[float]:
        """``inv_cdf`` of each u, with the range checked once for the batch:
        ``min`` and ``max`` can miss a NaN, which the sum cannot."""
        if us and not (0.0 < min(us) and max(us) < 1.0 and not math.isnan(sum(us))):
            return [self.inv_cdf(u) for u in us]  # raises inv_cdf's DomainError
        mean, std, quantile = self.mean, self.std, _std_normal_quantile
        return [mean + std * quantile(u) for u in us]

    def log_pdf(self, x: float) -> float:
        if not math.isfinite(x):
            return -INF
        z = (x - self.mean) / self.std
        return -0.5 * z * z - math.log(self.std) - _LOG_SQRT_2PI

    def support(self) -> tuple[float, float]:
        return -INF, INF

    def to_dict(self) -> dict:
        return {"family": "gaussian", "mean": self.mean, "variance": self.variance}


class Uniform(Distribution1D, Frozen):
    """Uniform distribution given by its center and total width."""

    __slots__ = _fields = ("center", "width")

    def __init__(self, center: float, width: float) -> None:
        if not width > 0.0 or not math.isfinite(width):
            raise DomainError(f"width must be finite and positive, got {width}")
        if not math.isfinite(center):
            raise DomainError(f"center must be finite, got {center}")
        self._store(center, width)

    @property
    def low(self) -> float:
        return self.center - 0.5 * self.width

    @property
    def high(self) -> float:
        return self.center + 0.5 * self.width

    def cdf(self, x: float) -> float:
        if x <= self.low:
            return 0.0
        if x >= self.high:
            return 1.0
        return (x - self.low) / self.width

    def inv_cdf(self, u: float) -> float:
        self._check_unit(u)
        return self.low + u * self.width

    def log_pdf(self, x: float) -> float:
        if self.low <= x <= self.high:
            return -math.log(self.width)
        return -INF

    def support(self) -> tuple[float, float]:
        return self.low, self.high

    def to_dict(self) -> dict:
        return {"family": "uniform", "center": self.center, "width": self.width}


class MixtureComponent(Frozen):
    __slots__ = _fields = ("weight", "low", "high")

    def __init__(self, weight: float, low: float, high: float) -> None:
        if not low < high or not math.isfinite(high - low):
            raise DomainError(f"component needs low < high, finitely apart, got ({low}, {high})")
        if not 0.0 < weight <= 1.0:
            raise DomainError(f"component weight must be in (0, 1], got {weight}")
        self._store(weight, low, high)

    @property
    def length(self) -> float:
        return self.high - self.low


class UniformMixture(Distribution1D, Frozen):
    """Mixture of pairwise-disjoint uniform components.

    Components must be sorted by position, non-overlapping, and carry
    weights summing to one within 1e-12.
    """

    __slots__ = _fields = ("components",)

    def __init__(self, components: tuple[MixtureComponent, ...]) -> None:
        comps = tuple(components)
        if not comps:
            raise DomainError("mixture needs at least one component")
        for a, b in zip(comps, comps[1:]):
            if b.low < a.high:
                raise DomainError(
                    f"components overlap or are unsorted near ({a.high}, {b.low})"
                )
        total = math.fsum(c.weight for c in comps)
        if abs(total - 1.0) > 1e-12:
            raise DomainError(f"component weights sum to {total}, expected 1")
        self._store(comps)

    def cdf(self, x: float) -> float:
        if x <= self.components[0].low:
            return 0.0
        acc = 0.0
        for c in self.components:
            if x < c.low:
                return acc
            if x < c.high:
                return acc + c.weight * (x - c.low) / c.length
            acc += c.weight
        return 1.0

    def inv_cdf(self, u: float) -> float:
        self._check_unit(u)
        acc = 0.0
        for c in self.components[:-1]:
            nxt = acc + c.weight
            if u <= nxt:
                return c.low + (u - acc) / c.weight * c.length
            acc = nxt
        c = self.components[-1]
        return c.low + (u - acc) / c.weight * c.length

    def log_pdf(self, x: float) -> float:
        for c in self.components:
            if c.low <= x <= c.high:
                return math.log(c.weight) - math.log(c.length)
        return -INF

    def support(self) -> tuple[float, float]:
        return self.components[0].low, self.components[-1].high

    def to_dict(self) -> dict:
        return {
            "family": "uniform_mixture",
            "components": [
                {"weight": c.weight, "low": c.low, "high": c.high}
                for c in self.components
            ],
        }


def as_number(value, kind: type = float):
    """``value`` as ``kind``, where a model or config dict gives a number: an
    integer field takes an int, a real field an int or a float. Anything
    else, a bool or a numeric string included, raises TypeError rather than
    being coerced; the dict loaders report it as DomainError."""
    if isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
        raise TypeError(f"expected {'an integer' if kind is int else 'a number'}, got {value!r}")
    return kind(value)


def distribution_from_dict(data: dict) -> Distribution1D:
    """The distribution a ``to_dict`` layout describes. A missing key or a
    parameter that is not a number raises DomainError, as a bad value does."""
    try:
        family = data["family"]
        if family == "gaussian":
            return Gaussian(as_number(data["mean"]), as_number(data["variance"]))
        if family == "uniform":
            return Uniform(as_number(data["center"]), as_number(data["width"]))
        if family == "uniform_mixture":
            comps = tuple(
                MixtureComponent(as_number(c["weight"]), as_number(c["low"]), as_number(c["high"]))
                for c in data["components"]
            )
            return UniformMixture(comps)
    except DomainError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed distribution {data!r}: {exc!r}") from None
    raise DomainError(f"unknown family {family!r}")


def sample_restricted_u(dist: Distribution1D, ulow: float, uhigh: float, u: float) -> float:
    """Draw the u-quantile of ``dist`` conditioned on the region whose
    proposal-CDF endpoints are ``ulow`` and ``uhigh``.

    Computes x = inv_cdf(ulow + u * (uhigh - ulow)). The search tree
    caches the CDF values of region endpoints; routing the encoder and
    the decoder through this one expression keeps them bit-identical.
    """
    span = uhigh - ulow
    if not span > 0.0:
        raise DegenerateRegionError(
            f"region carries no proposal mass (cdf span {span})"
        )
    return dist.inv_cdf(ulow + u * span)


# -- family-pair kernels --------------------------------------------------------
# A kernel holds what one family pair knows about r = dQ/dP, computed once
# when the pair is built: ``mode`` (a point attaining sup log r, or None
# where the ratio is unbounded), ``kl`` and ``dinf`` in nats,
# ``log_ratio(x)`` for x inside the proposal support, and
# ``bound(low, high)``, the supremum of log r over the open interval, and
# ``log_ratios(xs)``, the list of ``log_ratio(x)``.


class _Kernel:
    def log_ratios(self, xs: list[float]) -> list[float]:
        log_ratio = self.log_ratio
        return [log_ratio(x) for x in xs]


class _GaussianPair(_Kernel):
    """Gaussian target under a Gaussian proposal. log r is a quadratic, so
    its supremum over an interval sits at the mode (when the target variance
    is the smaller one) or at an end, an infinite end giving its limit."""

    def __init__(self, q: Gaussian, p: Gaussian):
        self.q_mean, self.p_mean = q.mean, p.mean
        self.two_qv, self.two_pv = 2.0 * q.variance, 2.0 * p.variance
        ratio = p.variance / q.variance
        if not 0.0 < ratio < INF:
            raise DomainError(f"variance ratio {p.variance} / {q.variance} leaves the float range")
        self.half_log_vr = 0.5 * math.log(ratio)
        dm = q.mean - p.mean
        self.kl = self.half_log_vr + (q.variance + dm * dm) / (2.0 * p.variance) - 0.5
        if q.variance < p.variance:
            self.mode = (q.mean * p.variance - p.mean * q.variance) / (p.variance - q.variance)
            self.dinf = self.half_log_vr + dm * dm / (2.0 * (p.variance - q.variance))
            self.tails = (-INF, -INF)
        elif q == p:
            self.mode, self.dinf, self.tails = p.mean, 0.0, (0.0, 0.0)
        elif q.variance > p.variance:
            self.mode, self.dinf, self.tails = None, INF, (INF, INF)
        else:  # equal variances, unequal means: log r is linear, rising when dm > 0
            self.mode, self.dinf = None, INF
            self.tails = (-INF, INF) if dm > 0.0 else (INF, -INF)
        self.at_mode = None if self.mode is None else self.log_ratio(self.mode)

    def log_ratio(self, x: float) -> float:
        zs = x - self.q_mean
        zp = x - self.p_mean
        return self.half_log_vr + zp * zp / self.two_pv - zs * zs / self.two_qv

    def log_ratios(self, xs: list[float]) -> list[float]:
        """``log_ratio``'s expression, in the same order, once per x."""
        c, q_mean, p_mean = self.half_log_vr, self.q_mean, self.p_mean
        two_qv, two_pv = self.two_qv, self.two_pv
        return [c + (zp := x - p_mean) * zp / two_pv - (zs := x - q_mean) * zs / two_qv
                for x in xs]

    def bound(self, low: float, high: float) -> float:
        lo = self.tails[0] if low == -INF else self.log_ratio(low)
        hi = self.tails[1] if high == INF else self.log_ratio(high)
        best = lo if lo >= hi else hi
        if self.mode is not None and low < self.mode < high and self.at_mode > best:
            return self.at_mode
        return best


class _UniformTarget(_Kernel):
    """Uniform target: log r = -log(width) - log p(x) on its support, convex
    for both supported proposals, so its supremum over an interval sits at an
    end of the interval's overlap with the support (-inf if they miss)."""

    def __init__(self, q: Uniform, p: Distribution1D):
        self.low, self.high = q.low, q.high
        self.log_q = -math.log(q.width)
        self.p_log_pdf = p.log_pdf
        self.dinf = self.bound(-INF, INF)

    def log_ratio(self, x: float) -> float:
        if self.low <= x <= self.high:
            return self.log_q - self.p_log_pdf(x)
        return -INF

    def bound(self, low: float, high: float) -> float:
        a = low if low > self.low else self.low
        b = high if high < self.high else self.high
        if a > b:
            return -INF
        ra, rb = self.log_ratio(a), self.log_ratio(b)
        return ra if ra >= rb else rb


class _UniformUniform(_UniformTarget):
    def __init__(self, q: Uniform, p: Uniform):
        super().__init__(q, p)
        self.mode = p.center if q == p else q.center  # log r is flat
        self.kl = math.log(p.width / q.width)


class _UniformGaussian(_UniformTarget):
    def __init__(self, q: Uniform, p: Gaussian):
        super().__init__(q, p)
        a, b = q.low, q.high  # the support endpoint farther from the proposal mean
        self.mode = a if abs(a - p.mean) >= abs(b - p.mean) else b
        # E_Q[(x - mean_p)^2] for uniform Q has a cubic closed form.
        a, b = q.low - p.mean, q.high - p.mean
        second_moment = (b * b * b - a * a * a) / (3.0 * (b - a))
        self.kl = (-math.log(q.width) + math.log(p.std) + _LOG_SQRT_2PI
                   + second_moment / (2.0 * p.variance))


class _MixtureUniform(_Kernel):
    """Uniform-mixture target under a uniform proposal: log r is one
    constant per component, so the bound over an interval is the largest
    constant among the components it overlaps."""

    def __init__(self, q: UniformMixture, p: Uniform):
        log_p = -math.log(p.width)
        self.pieces = tuple(
            (c.low, c.high, math.log(c.weight) - math.log(c.length) - log_p)
            for c in q.components
        )
        densest = max(q.components, key=lambda c: c.weight / c.length)
        self.mode = 0.5 * (densest.low + densest.high)
        self.kl = math.fsum(c.weight * math.log(c.weight * p.width / c.length)
                            for c in q.components)
        self.dinf = self.bound(-INF, INF)

    def log_ratio(self, x: float) -> float:
        for low, high, value in self.pieces:
            if low <= x <= high:
                return value
        return -INF

    def bound(self, low: float, high: float) -> float:
        best = -INF
        for c_low, c_high, value in self.pieces:
            if c_high > low and c_low < high and value > best:
                best = value
        return best


_KERNELS = {
    (Gaussian, Gaussian): _GaussianPair,
    (Uniform, Uniform): _UniformUniform,
    (Uniform, Gaussian): _UniformGaussian,
    (UniformMixture, Uniform): _MixtureUniform,
}


class PairSpec:
    """A target distribution Q paired with a proposal P, Q << P.

    Owns everything the coders need about the density ratio r = dQ/dP:
    pointwise log ratio, the maximizing point, supremum bounds over
    regions, and closed-form divergences. The family pair picks its kernel
    from ``_KERNELS`` once, here.

    ``_dyadic_memo`` is the dyadic memo ``coders._astar_search`` reads and fills.
    """

    def __init__(self, target: Distribution1D, proposal: Distribution1D):
        kernel = _KERNELS.get((type(target), type(proposal)))
        if kernel is None:
            error = DomainError if type(proposal) is UniformMixture else AbsoluteContinuityError
            raise error(f"no kernel for a {type(target).__name__} target under a "
                        f"{type(proposal).__name__} proposal")
        (q_low, q_high), (p_low, p_high) = target.support(), proposal.support()
        if q_low < p_low or q_high > p_high:
            raise AbsoluteContinuityError(
                f"target support ({q_low}, {q_high}) not inside "
                f"proposal support ({p_low}, {p_high})"
            )
        self.target, self.proposal = target, proposal
        self._low, self._high = p_low, p_high
        self._kernel = kernel(target, proposal)
        self._dyadic_memo = {}  # filled by coders._astar_search

    def log_ratio(self, x: float) -> float:
        """log(dQ/dP)(x); -inf where q(x) = 0 inside the proposal support."""
        if not self._low <= x <= self._high or not math.isfinite(x):
            raise DomainError(f"x={x} outside proposal support")
        return self._kernel.log_ratio(x)

    def log_ratios(self, xs: list[float]) -> list[float]:
        """``[self.log_ratio(x) for x in xs]``, bit for bit, with support and
        finiteness checked once for the batch (the sum of the xs is finite
        only if each x is, NaN included)."""
        if xs and not (self._low <= min(xs) and max(xs) <= self._high
                       and math.isfinite(sum(xs))):
            return [self.log_ratio(x) for x in xs]  # raises log_ratio's DomainError
        return self._kernel.log_ratios(xs)

    def ratio_mode(self) -> float:
        """A point attaining sup log r over the proposal support.

        For a Gaussian pair this requires target variance < proposal
        variance (otherwise the ratio is unbounded). Identical target and
        proposal return the proposal mean by convention.
        """
        mode = self._kernel.mode
        if mode is None:
            raise UnboundedRatioError(
                "density ratio is unbounded unless target variance < proposal variance"
            )
        return mode

    def bound_M(self, low: float, high: float) -> float:
        """sup of log r over the interval (low, high)'s overlap with the target support.

        Exact for every supported pair: the supremum sits at the ratio mode
        or at an end of that overlap, and for mixture targets it is a
        maximum of per-component constants.
        """
        return self._kernel.bound(low, high)

    def analytic_kl(self) -> float:
        """KL(Q || P) in nats, closed form per family pair."""
        return self._kernel.kl

    def analytic_dinf(self) -> float:
        """Renyi divergence of order infinity, sup log r, in nats.

        +inf is a legitimate value (Gaussian pair with target variance
        >= proposal variance and different means).
        """
        return self._kernel.dinf

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return {"target": self.target.to_dict(), "proposal": self.proposal.to_dict()}

    @staticmethod
    def from_dict(data: dict) -> "PairSpec":
        return PairSpec(
            distribution_from_dict(data["target"]),
            distribution_from_dict(data["proposal"]),
        )
