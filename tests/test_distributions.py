"""Distribution and pair tests.

The Gaussian quantile is checked against scipy.special.ndtri; the KL
constants below were frozen from scipy.integrate.quad runs (errors at
the 1e-12 scale), so the closed forms in the library are compared to
independently computed numbers.
"""

import json
import math
import random
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from reckit.distributions import (
    _std_normal_quantile,
    Gaussian,
    MixtureComponent,
    PairSpec,
    Uniform,
    UniformMixture,
    distribution_from_dict,
    sample_restricted_u,
)
from reckit.errors import (
    AbsoluteContinuityError,
    DegenerateRegionError,
    DomainError,
    UnboundedRatioError,
)

# quad oracles (scipy.integrate.quad, abserr < 1e-11)
QUAD_KL_GG = 1.0                      # N(1.3247751431696517, 0.45291085160915195) vs N(0,1)
QUAD_KL_UG = 0.6384734250965083       # Uniform(center 0.25, width 1.5) vs N(0,1)
QUAD_KL_MIX = 1.414461918715174       # two-component mixture below vs Uniform(1, 2)
UG_DINF = 1.0134734250965083          # sup log ratio of the U/G pair, at x = 1

MIX = UniformMixture((
    MixtureComponent(0.3, 0.1, 0.2),
    MixtureComponent(0.7, 0.5, 0.9),
))


def test_gaussian_cdf_against_scipy():
    g = Gaussian(0.7, 2.3)
    xs = np.linspace(-8, 10, 400)
    ours = np.array([g.cdf(x) for x in xs])
    ref = stats.norm.cdf(xs, 0.7, math.sqrt(2.3))
    assert np.max(np.abs(ours - ref)) < 1e-15


def test_gaussian_quantile_against_ndtri():
    g = Gaussian(0.0, 1.0)
    us = np.concatenate([
        np.linspace(1e-12, 1 - 1e-12, 3001),
        10.0 ** -np.arange(2, 13),
        1 - 10.0 ** -np.arange(2, 13),
    ])
    worst = 0.0
    for u in us:
        z = g.inv_cdf(float(u))
        ref = special.ndtri(u)
        worst = max(worst, abs(z - ref) / max(1.0, abs(ref)))
    assert worst < 5e-14


def frozen_std_normal_quantile(u):
    """The standard normal quantile as first written, with its
    coefficients in tuples: the reference the folded one must match."""
    a = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)
    low = 0.02425
    if u < low:
        q = math.sqrt(-2.0 * math.log(u))
        z = ((((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5])
             / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0))
    elif u <= 1.0 - low:
        q = u - 0.5
        r = q * q
        z = ((((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q
             / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0))
    else:
        q = math.sqrt(-2.0 * math.log1p(-u))
        z = -((((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5])
              / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0))
    if u <= 0.5:
        resid = 0.5 * math.erfc(-z / math.sqrt(2.0)) - u
    else:
        resid = (1.0 - u) - 0.5 * math.erfc(z / math.sqrt(2.0))
    t = resid * math.sqrt(2.0 * math.pi) * math.exp(0.5 * z * z)
    return z - t / (1.0 + 0.5 * z * t)


def test_std_normal_quantile_is_bit_identical_to_the_frozen_formula():
    rng = random.Random(20260817)
    us = [rng.random() or 0.5 for _ in range(100_000)]
    us += [10.0 ** -rng.uniform(2.0, 300.0) for _ in range(5_000)]  # deep lower tail
    us += [1.0 - 10.0 ** -rng.uniform(2.0, 16.0) for _ in range(5_000)]  # deep upper tail
    for edge in (0.02425, 0.5, 1.0 - 0.02425):  # the branch and residual-side switches
        us += [math.nextafter(edge, 0.0), edge, math.nextafter(edge, 1.0)]
    assert sum(u < 0.02425 for u in us) > 5_000 and sum(u > 1.0 - 0.02425 for u in us) > 5_000
    assert [_std_normal_quantile(u).hex() for u in us] == [
        frozen_std_normal_quantile(u).hex() for u in us]


def test_std_normal_quantile_refuses_where_its_residual_step_overflows():
    """Below about u = 1e-310 the residual step's exp overflows: the
    quantile refuses with DomainError where the frozen formula raises
    OverflowError, and returns the frozen value bit for bit everywhere
    else, 1e-310 (-37.66) included."""
    g = Gaussian(0.0, 1.0)
    for u in (5e-324, 1e-315):
        with pytest.raises(DomainError):
            g.inv_cdf(u)
        with pytest.raises(DomainError):
            g.inv_cdfs([0.5, u])
    assert g.inv_cdf(1e-310) == frozen_std_normal_quantile(1e-310) == -37.663060331949524
    rng = random.Random(20260817)
    us = [5e-324, 1e-315, 1e-310] + [10.0 ** -rng.uniform(300.0, 323.5) for _ in range(2_000)]
    us += [rng.random() * 1e-308 for _ in range(2_000)]  # the subnormals
    outcomes = set()
    for u in us:
        try:
            expected = frozen_std_normal_quantile(u).hex()
        except OverflowError:
            with pytest.raises(DomainError):
                _std_normal_quantile(u)
            outcomes.add("refused")
        else:
            assert _std_normal_quantile(u).hex() == expected
            outcomes.add("returned")
    assert outcomes == {"refused", "returned"}


def test_gaussian_quantile_roundtrip():
    g = Gaussian(-3.0, 0.25)
    for u in np.linspace(1e-9, 1 - 1e-9, 1001):
        assert abs(g.cdf(g.inv_cdf(float(u))) - u) < 1e-13


def test_gaussian_log_pdf_against_scipy():
    g = Gaussian(1.5, 0.49)
    for x in np.linspace(-5, 8, 101):
        assert g.log_pdf(float(x)) == pytest.approx(
            stats.norm.logpdf(x, 1.5, 0.7), abs=1e-12
        )
    assert g.log_pdf(math.inf) == -math.inf


def test_gaussian_validation():
    with pytest.raises(DomainError):
        Gaussian(0.0, 0.0)
    with pytest.raises(DomainError):
        Gaussian(0.0, -1.0)
    with pytest.raises(DomainError):
        Gaussian(math.nan, 1.0)
    with pytest.raises(DomainError):
        Gaussian(0.0, 1.0).inv_cdf(0.0)
    with pytest.raises(DomainError):
        Gaussian(0.0, 1.0).inv_cdf(1.0)


@pytest.mark.parametrize("dist", [Gaussian(0.5, 2.0), Uniform(1.0, 4.0), MIX],
                         ids=["gaussian", "uniform", "mixture"])
def test_inv_cdf_refuses_u_outside_the_open_unit_interval(dist):
    # NaN fails every comparison, so only a check of the form
    # `not 0 < u < 1` refuses it
    for u in (math.nan, 0.0, 1.0, -0.5, 1.5):
        with pytest.raises(DomainError):
            dist.inv_cdf(u)


# -- batch forms -----------------------------------------------------------------
# ``inv_cdfs`` and ``PairSpec.log_ratios`` restate their scalar forms for a
# list; each must give the scalar list bit for bit and refuse what it refuses.

BATCH_DISTS = [Gaussian(0.5, 2.0), Uniform(1.0, 4.0), MIX]
BATCH_PAIRS = [  # one pair for each of the four kernels
    PairSpec(Gaussian(1.3, 0.45), Gaussian(0.0, 1.0)),
    PairSpec(Uniform(0.25, 1.5), Gaussian(0.0, 1.0)),
    PairSpec(Uniform(1.2, 0.5), Uniform(1.0, 2.0)),
    PairSpec(MIX, Uniform(0.5, 1.0)),
]
BATCH_DIST_IDS = ["gaussian", "uniform", "mixture"]
BATCH_PAIR_IDS = ["gauss-gauss", "uniform-gauss", "uniform-uniform", "mixture-uniform"]
UNITS = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
# the range of a keyed uniform, whose quantile is finite (no overflow)
KEYED_UNITS = st.floats(2.0 ** -54, 1.0 - 2.0 ** -54)


def _batches(elements):
    """Lists of 1 or 256 elements (the ends of one packed draw batch), or of 0 to 40."""
    return (st.sampled_from([1, 256]).flatmap(
        lambda n: st.lists(elements, min_size=n, max_size=n))
        | st.lists(elements, max_size=40))


def _points(pair):
    """Points inside the proposal support; a finite float of any size on the line."""
    low, high = pair.proposal.support()
    if low == -math.inf:
        return st.floats(-50.0, 50.0) | st.floats(allow_nan=False, allow_infinity=False)
    return st.floats(low, high)


def _outcome(form, values):
    """What a form gives, as hex strings, or the DomainError it raises (a
    u below about 1e-310 is refused by the quantile's residual step)."""
    try:
        return [v.hex() for v in form(values)]
    except DomainError as exc:
        return f"{type(exc).__name__}: {exc}"


def _scalar(form):
    return lambda values: [form(v) for v in values]


@settings(max_examples=60, deadline=None)
@given(us=_batches(UNITS))
@pytest.mark.parametrize("dist", BATCH_DISTS, ids=BATCH_DIST_IDS)
def test_inv_cdfs_is_inv_cdf_bit_for_bit(dist, us):
    assert _outcome(dist.inv_cdfs, us) == _outcome(_scalar(dist.inv_cdf), us)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("pair", BATCH_PAIRS, ids=BATCH_PAIR_IDS)
def test_log_ratios_is_log_ratio_bit_for_bit(pair, data):
    xs = data.draw(_batches(_points(pair)))
    assert _outcome(pair.log_ratios, xs) == _outcome(_scalar(pair.log_ratio), xs)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, 1.0],
                         ids=["nan", "inf", "-inf", "0", "1"])
@pytest.mark.parametrize("dist", BATCH_DISTS, ids=BATCH_DIST_IDS)
def test_inv_cdfs_refuses_what_inv_cdf_refuses(dist, bad, data):
    us = data.draw(_batches(KEYED_UNITS).filter(bool))
    us[data.draw(st.integers(0, len(us) - 1))] = bad
    refusal = _outcome(_scalar(dist.inv_cdf), us)
    assert refusal.startswith("DomainError: ")
    assert _outcome(dist.inv_cdfs, us) == refusal


@settings(max_examples=20, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("pair", BATCH_PAIRS, ids=BATCH_PAIR_IDS)
def test_log_ratios_refuses_what_log_ratio_refuses(pair, data):
    low, high = pair.proposal.support()
    bad = [math.nan, math.inf, -math.inf]
    if high < math.inf:  # just outside a bounded proposal's support
        bad += [math.nextafter(low, -math.inf), math.nextafter(high, math.inf)]
    xs = data.draw(_batches(_points(pair)).filter(bool))
    xs[data.draw(st.integers(0, len(xs) - 1))] = data.draw(st.sampled_from(bad))
    refusal = _outcome(_scalar(pair.log_ratio), xs)
    assert refusal.startswith("DomainError: ")
    assert _outcome(pair.log_ratios, xs) == refusal


def test_std_normal_quantile_is_within_1e_12_of_the_exact_quantile():
    """The bound ``Gaussian.quantiles_differ`` rests on (it assumes 1e-9)
    over [2^-53, 1 - 2^-53], against ``statistics.NormalDist``: every
    dyadic u to depth 18, the powers 2^-j and 1 - 2^-j for j <= 53, and
    2 * 10^5 seeded random u. The quantile stays below 9 in magnitude."""
    exact = statistics.NormalDist().inv_cdf
    us = [k / 2**18 for k in range(1, 2**18)]
    us += [2.0**-j for j in range(1, 54)] + [1.0 - 2.0**-j for j in range(1, 54)]
    rng = random.Random(20260817)
    us += [rng.random() or 0.5 for _ in range(200_000)]
    worst = max(abs(_std_normal_quantile(u) - exact(u)) for u in us)
    assert worst < 1e-12
    assert abs(_std_normal_quantile(2.0**-53)) < 9 and abs(_std_normal_quantile(1 - 2.0**-53)) < 9


def dyadic_ends(depth):
    """Inner CDF ends (k, k + 1) * 2^-(depth - 1) of dyadic nodes at ``depth``:
    the first and last inner nodes, those around the middle and a spread."""
    top = 1 << (depth - 1)
    ks = {1, 2, top // 2 - 1, top // 2, top - 3, top - 2}
    ks |= {(i * 2654435761) % top for i in range(8)}
    return [(math.ldexp(k, 1 - depth), math.ldexp(k + 1, 1 - depth))
            for k in sorted(ks) if 0 < k < top - 1]


class _NoQuantile(Gaussian):
    """A Gaussian whose quantile refuses to be drawn."""

    __slots__ = ()

    def inv_cdf(self, u):
        raise LookupError("a quantile was drawn")


def test_gaussian_quantiles_differ_is_the_two_quantile_comparison():
    """Wherever the bound decides it answers True without a quantile, and
    otherwise compares the quantiles: equal to inv_cdf(ulow) < inv_cdf(uhigh)
    at every mean, std and dyadic end below, which take both answers."""
    answers, decided = set(), 0
    for mean in (0.0, 0.5, -3.0, 1e10):
        for std in (1e-150, 1e-30, 1e-6, 1.0, 1e10):
            g, bare = Gaussian(mean, std * std), _NoQuantile(mean, std * std)
            for depth in range(2, 55):
                for ulow, uhigh in dyadic_ends(depth):
                    got = g.quantiles_differ(ulow, uhigh)
                    assert got == (g.inv_cdf(ulow) < g.inv_cdf(uhigh)), (mean, std, ulow, uhigh)
                    answers.add(got)
                    try:
                        assert bare.quantiles_differ(ulow, uhigh) is True
                        decided += 1
                    except LookupError:
                        pass
    assert answers == {True, False} and decided > 0
    # an N(0, 1) dyadic node of a block_codec budget takes no quantile
    bare = _NoQuantile(0.0, 1.0)
    assert all(bare.quantiles_differ(*ends) for depth in range(2, 9) for ends in dyadic_ends(depth))
    # out of the bound's range, or refused, it is inv_cdf's answer or refusal
    g = Gaussian(0.0, 1.0)
    assert g.quantiles_differ(1e-300, 0.5) is True
    with pytest.raises(DomainError):
        g.quantiles_differ(0.0, 0.5)
    with pytest.raises(DomainError):
        g.quantiles_differ(0.5, math.nan)


def test_gaussian_caches_std_outside_its_identity():
    g = Gaussian(0.5, 2.0)
    assert g.std == math.sqrt(2.0)
    assert g == Gaussian(0.5, 2.0) and hash(g) == hash(Gaussian(0.5, 2.0))
    assert g.to_dict() == {"family": "gaussian", "mean": 0.5, "variance": 2.0}
    assert repr(g) == "Gaussian(mean=0.5, variance=2.0)"
    assert distribution_from_dict(g.to_dict()).std == g.std


def test_uniform_basics():
    u = Uniform(1.0, 4.0)
    assert u.low == -1.0 and u.high == 3.0
    assert u.cdf(-2.0) == 0.0 and u.cdf(5.0) == 1.0
    assert u.cdf(0.0) == 0.25
    assert u.inv_cdf(0.25) == 0.0
    assert u.log_pdf(1.0) == -math.log(4.0)
    assert u.log_pdf(3.5) == -math.inf
    assert u.cdf(1.0) - u.cdf(0.0) == pytest.approx(0.25)
    with pytest.raises(DomainError):
        Uniform(0.0, 0.0)
    for center in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError, match="center must be finite"):
            Uniform(center, 1.0)


def test_mixture_cdf_inverse_consistency():
    for u in np.linspace(1e-9, 1 - 1e-9, 2001):
        x = MIX.inv_cdf(float(u))
        assert MIX.cdf(x) == pytest.approx(u, abs=1e-12)
    # cdf is flat on the gap between components
    assert MIX.cdf(0.3) == MIX.cdf(0.45) == 0.3
    assert MIX.log_pdf(0.15) == pytest.approx(math.log(0.3 / 0.1))
    assert MIX.log_pdf(0.3) == -math.inf
    assert MIX.support() == (0.1, 0.9)


def test_mixture_validation():
    with pytest.raises(DomainError):
        UniformMixture(())
    with pytest.raises(DomainError):  # overlap
        UniformMixture((MixtureComponent(0.5, 0.0, 0.5), MixtureComponent(0.5, 0.4, 0.8)))
    with pytest.raises(DomainError):  # weights do not sum to 1
        UniformMixture((MixtureComponent(0.5, 0.0, 0.1), MixtureComponent(0.4, 0.2, 0.3)))
    # a component must span a finite length: an infinite end, or finite ends
    # whose difference overflows, would read nan or a wrong CDF and quantile
    for low, high in ((-math.inf, 0.0), (0.0, math.inf), (-1e308, 1e308), (math.nan, 1.0)):
        with pytest.raises(DomainError):
            MixtureComponent(1.0, low, high)
    for weight in (0.0, -0.5, 1.5, math.nan):
        with pytest.raises(DomainError, match="component weight must be in"):
            MixtureComponent(weight, 0.0, 1.0)


def test_serialization_roundtrip():
    for dist in (Gaussian(0.5, 2.0), Uniform(-1.0, 3.0), MIX):
        clone = distribution_from_dict(json.loads(json.dumps(dist.to_dict())))
        assert clone == dist
    pair = PairSpec(Gaussian(1.0, 0.5), Gaussian(0.0, 1.0))
    clone = PairSpec.from_dict(json.loads(json.dumps(pair.to_dict())))
    assert clone.target == pair.target and clone.proposal == pair.proposal
    with pytest.raises(DomainError):
        distribution_from_dict({"family": "cauchy"})
    for bad in ({"no": "family"}, ["gaussian"], {"family": "gaussian", "mean": 0.0},
                {"family": "uniform", "center": "x", "width": 1},
                {"family": "uniform_mixture", "components": [{"weight": 1.0, "low": 0.0}]},
                {"family": "uniform_mixture", "components": 3},
                json.loads('{"family": "uniform_mixture", "components": '
                           '[{"weight": 1.0, "low": -Infinity, "high": 0.0}]}')):
        with pytest.raises(DomainError):
            distribution_from_dict(bad)


def test_sample_restricted_stays_inside():
    g = Gaussian(0.0, 1.0)
    ulow, uhigh = g.cdf(-0.5), g.cdf(2.0)
    for i in range(500):
        u = (i + 0.5) / 500
        x = sample_restricted_u(g, ulow, uhigh, u)
        assert -0.5 <= x <= 2.0
        # the u-quantile of the proposal conditioned on the region
        assert x == g.inv_cdf(ulow + u * (uhigh - ulow))


def test_sample_restricted_zero_mass():
    u = Uniform(0.0, 1.0)
    with pytest.raises(DegenerateRegionError):
        sample_restricted_u(u, u.cdf(5.0), u.cdf(6.0), 0.5)


def test_pair_validation():
    with pytest.raises(AbsoluteContinuityError):
        PairSpec(Gaussian(0.0, 1.0), Uniform(0.0, 10.0))
    with pytest.raises(AbsoluteContinuityError):
        PairSpec(Uniform(0.0, 4.0), Uniform(0.0, 2.0))
    with pytest.raises(AbsoluteContinuityError):
        PairSpec(MIX, Gaussian(0.0, 1.0))
    with pytest.raises(DomainError):
        PairSpec(Gaussian(0.0, 0.5), MIX)


def test_pair_refuses_unrepresentable_variance_ratio():
    # every Gaussian-pair constant uses log(p.variance / q.variance)
    for q, p in ((Gaussian(0.0, 1e200), Gaussian(0.0, 1e-200)),
                 (Gaussian(0.0, 1e-200), Gaussian(0.0, 1e200))):
        with pytest.raises(DomainError):
            PairSpec(q, p)


def test_log_ratio_gaussian_matches_logpdf_difference():
    pair = PairSpec(Gaussian(1.3, 0.45), Gaussian(0.0, 1.0))
    for x in np.linspace(-6, 8, 201):
        expected = stats.norm.logpdf(x, 1.3, math.sqrt(0.45)) - stats.norm.logpdf(x)
        assert pair.log_ratio(float(x)) == pytest.approx(expected, abs=1e-11)


def test_log_ratio_outside_proposal_support():
    pair = PairSpec(Uniform(0.5, 0.5), Uniform(0.5, 1.0))
    with pytest.raises(DomainError):
        pair.log_ratio(2.0)
    assert pair.log_ratio(0.1) == -math.inf  # inside proposal, outside target


def test_ratio_mode_gaussian():
    q, p = Gaussian(1.0, 0.25), Gaussian(0.0, 1.0)
    pair = PairSpec(q, p)
    x_star = pair.ratio_mode()
    # stationary point of the quadratic log ratio
    assert x_star == pytest.approx((1.0 * 1.0 - 0.0 * 0.25) / (1.0 - 0.25))
    grid = np.linspace(x_star - 2, x_star + 2, 4001)
    vals = [pair.log_ratio(float(x)) for x in grid]
    assert max(vals) <= pair.log_ratio(x_star) + 1e-12
    with pytest.raises(UnboundedRatioError):
        PairSpec(Gaussian(1.0, 2.0), Gaussian(0.0, 1.0)).ratio_mode()


def test_ratio_mode_uniform_in_gaussian_is_far_endpoint():
    pair = PairSpec(Uniform(0.25, 1.5), Gaussian(0.0, 1.0))
    assert pair.ratio_mode() == 1.0  # endpoint farther from the proposal mean
    assert pair.log_ratio(1.0) == pytest.approx(UG_DINF, abs=1e-12)


def test_ratio_mode_identical_pair():
    assert PairSpec(Gaussian(2.0, 3.0), Gaussian(2.0, 3.0)).ratio_mode() == 2.0
    assert PairSpec(Uniform(1.0, 2.0), Uniform(1.0, 2.0)).ratio_mode() == 1.0


def test_bound_M_dominates_log_ratio():
    """Property: bound over a region >= log ratio at every point inside."""
    pairs = [
        PairSpec(Gaussian(1.3, 0.45), Gaussian(0.0, 1.0)),
        PairSpec(Uniform(0.25, 1.5), Gaussian(0.0, 1.0)),
        # ratio peaks at the near target endpoint 0, inside (-1, 0.5)
        PairSpec(Uniform(0.5, 1.0), Gaussian(0.4, 0.05)),
        PairSpec(Uniform(1.2, 0.5), Uniform(1.0, 2.0)),
        PairSpec(MIX, Uniform(0.5, 1.0)),
    ]
    regions = [
        (-math.inf, math.inf),
        (-1.0, 0.5),
        (0.12, 0.7),
        (0.5, math.inf),
        (-math.inf, 0.55),
    ]
    rng = np.random.default_rng(20260817)
    for pair in pairs:
        sup_low, sup_high = pair.proposal.support()
        for low, high in regions:
            m = pair.bound_M(low, high)
            lo = max(low, sup_low)
            hi = min(high, sup_high)
            if not lo < hi:
                continue
            for _ in range(300):
                x = float(rng.uniform(max(lo, -40), min(hi, 40)))
                if low < x < high and sup_low <= x <= sup_high:
                    assert pair.log_ratio(x) <= m + 1e-9


def test_bound_M_is_tight_on_full_line():
    pair = PairSpec(Gaussian(1.3, 0.45), Gaussian(0.0, 1.0))
    assert pair.bound_M(-math.inf, math.inf) == pytest.approx(pair.analytic_dinf(), abs=1e-12)
    pair = PairSpec(MIX, Uniform(1.0, 2.0))
    # densest component: weight 0.3 over length 0.1 against density 0.5
    assert pair.bound_M(-math.inf, math.inf) == pytest.approx(math.log(6.0), abs=1e-12)


def test_analytic_kl_against_quad():
    gg = PairSpec(
        Gaussian(1.3247751431696517, 0.45291085160915195), Gaussian(0.0, 1.0)
    )
    assert gg.analytic_kl() == pytest.approx(QUAD_KL_GG, abs=1e-10)
    ug = PairSpec(Uniform(0.25, 1.5), Gaussian(0.0, 1.0))
    assert ug.analytic_kl() == pytest.approx(QUAD_KL_UG, abs=1e-12)
    mix = PairSpec(MIX, Uniform(1.0, 2.0))
    assert mix.analytic_kl() == pytest.approx(QUAD_KL_MIX, abs=1e-12)
    uu = PairSpec(Uniform(0.45, 0.5), Uniform(1.0, 2.0))
    assert uu.analytic_kl() == pytest.approx(math.log(4.0), abs=1e-15)


def test_analytic_dinf():
    gg = PairSpec(
        Gaussian(1.3247751431696517, 0.45291085160915195), Gaussian(0.0, 1.0)
    )
    assert gg.analytic_dinf() == pytest.approx(2.0, abs=1e-10)
    # grid supremum agrees
    grid = np.linspace(-40, 40, 200001)
    vals = stats.norm.logpdf(grid, 1.3247751431696517, math.sqrt(0.45291085160915195)) \
        - stats.norm.logpdf(grid)
    assert vals.max() <= gg.analytic_dinf() + 1e-9
    assert vals.max() > gg.analytic_dinf() - 1e-4
    ug = PairSpec(Uniform(0.25, 1.5), Gaussian(0.0, 1.0))
    assert ug.analytic_dinf() == pytest.approx(UG_DINF, abs=1e-12)
    assert PairSpec(Gaussian(1.0, 1.0), Gaussian(0.0, 1.0)).analytic_dinf() == math.inf
    assert PairSpec(Gaussian(0.0, 1.0), Gaussian(0.0, 1.0)).analytic_dinf() == 0.0
    # equal variances, means 5e-324 apart: the slope of log r underflows to
    # 0, and log r still grows without bound toward the target's side
    for q_mean, p_mean in ((5e-324, 0.0), (0.0, 5e-324)):
        pair = PairSpec(Gaussian(q_mean, 2.0), Gaussian(p_mean, 2.0))
        rising = q_mean > p_mean
        assert pair.bound_M(0.0, math.inf) == (math.inf if rising else pair.log_ratio(0.0))
        assert pair.bound_M(-math.inf, 0.0) == (pair.log_ratio(0.0) if rising else math.inf)


def test_identical_pair_divergences_vanish():
    pair = PairSpec(Gaussian(0.3, 1.7), Gaussian(0.3, 1.7))
    assert pair.analytic_kl() == pytest.approx(0.0, abs=1e-15)
    assert pair.analytic_dinf() == 0.0
    pair = PairSpec(Uniform(0.0, 2.0), Uniform(0.0, 2.0))
    assert pair.analytic_kl() == 0.0
    assert pair.analytic_dinf() == 0.0


def test_pair_json_includes_both_sides():
    pair = PairSpec(MIX, Uniform(0.5, 1.0))
    data = json.loads(json.dumps(pair.to_dict()))
    assert data["target"]["family"] == "uniform_mixture"
    assert data["proposal"]["family"] == "uniform"
