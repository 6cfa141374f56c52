"""The package's value types: immutable, slotted, with their reprs pinned.

Each of the 14 types is built here as one example; its ``repr`` was
recorded from the ``dataclasses`` build these types had before, so a
type keeps its printed form, field order and defaults. Assignment and
deletion raise AttributeError.
"""

import copy
import pickle

import pytest

from reckit.bench import CSV_COLUMNS, ExperimentConfig, ResultRow, ShrinkageReport, _Cell
from reckit.bitstream import MODE_EXACT, MessageFrame
from reckit.coders import CODERS, Code, CoderSpec, TrialStats, Unit, Variant
from reckit.distributions import Gaussian, MixtureComponent, Uniform, UniformMixture
from reckit.errors import Frozen
from reckit.isokl import BlockCodecConfig, IsoKLGaussianBlock
from reckit.tree import PartitionKind

CODE = Code(Variant.AS_STAR, 5)
CODE_REPR = "Code(variant=<Variant.AS_STAR: 'as'>, payload=5, budget=None)"
COMPONENTS = [MixtureComponent(0.5, 0.0, 0.25), MixtureComponent(0.5, 0.5, 1.0)]

RECORDED = [
    (Gaussian(0.5, 2.0), "Gaussian(mean=0.5, variance=2.0)"),
    (Uniform(0.25, 1.5), "Uniform(center=0.25, width=1.5)"),
    (MixtureComponent(0.5, 0.0, 0.25), "MixtureComponent(weight=0.5, low=0.0, high=0.25)"),
    (UniformMixture(COMPONENTS),
     "UniformMixture(components=(MixtureComponent(weight=0.5, low=0.0, high=0.25), "
     "MixtureComponent(weight=0.5, low=0.5, high=1.0)))"),
    (CODE, CODE_REPR),
    (TrialStats(10, 3, 3, 5, -0.25),
     "TrialStats(steps=10, returned_depth=3, payload_bits=3, overhead_bits=5, "
     "lower_bound=-0.25)"),
    (CoderSpec(1, Unit.HEAP_INDEX, len, abs),
     "CoderSpec(tag=1, unit=<Unit.HEAP_INDEX: 'heap_index'>, encode=<built-in function len>, "
     "decode=<built-in function abs>, kind=None, max_dinf=inf)"),
    (MessageFrame(MODE_EXACT, Variant.AS_STAR, [CODE]),
     "MessageFrame(mode='exact_per_symbol', variant=<Variant.AS_STAR: 'as'>, "
     f"codes=({CODE_REPR},), budget=None)"),
    (IsoKLGaussianBlock((0.0, 1.0), (1.0, 2.0), (0.4, 1.5), 0.9),
     "IsoKLGaussianBlock(prior_means=(0.0, 1.0), prior_stds=(1.0, 2.0), "
     "target_means=(0.4, 1.5), kappa=0.9, "
     "target_variances=(0.07707928471235162, 0.2775309258747559))"),
    (BlockCodecConfig(3), "BlockCodecConfig(extra_bits=3)"),
    (ResultRow("as", "gaussian", 0.9, 2.0, steps=4.0),
     "ResultRow(algorithm='as', family='gaussian', d_kl_nats=0.9, d_inf_nats=2.0, "
     "n_modes=None, t_extra_bits=None, trial_index=0, steps=4.0, depth=None, "
     "payload_bits=None, kl_bias_estimate=None, error=None)"),
    (ExperimentConfig(["as"], 1, 7, gaussian_cells=[(0.9, 2.0)]),
     "ExperimentConfig(algorithms=('as',), trials=1, seed=7, gaussian_cells=((0.9, 2.0),), "
     "uniform_cells=(), mixture_cells=(), extra_bits=(0, 1, 2, 3, 4), batch=100, "
     "max_steps=1000000)"),
    (_Cell("gaussian", None, 0.9, 2.0),
     "_Cell(family='gaussian', pair=None, kl=0.9, dinf=2.0, n_modes=None)"),
    (ShrinkageReport(PartitionKind.DYADIC, (1, 2), (1.0, 0.5), (1.0, 0.5), True),
     "ShrinkageReport(kind=<PartitionKind.DYADIC: 'dyadic'>, depths=(1, 2), "
     "mean_mass=(1.0, 0.5), bounds=(1.0, 0.5), passed=True)"),
]
IDS = [type(value).__name__ for value, _ in RECORDED]


@pytest.mark.parametrize("value, recorded", RECORDED, ids=IDS)
def test_value_types_keep_their_repr_and_refuse_changes(value, recorded):
    assert isinstance(value, Frozen)
    assert repr(value) == recorded
    for name in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.not_a_field = 1
    assert repr(value) == recorded


@pytest.mark.parametrize("value, recorded", RECORDED, ids=IDS)
def test_value_types_compare_and_copy_by_their_fields(value, recorded):
    for twin in (copy.copy(value), copy.deepcopy(value)):
        assert twin == value and hash(twin) == hash(value) and repr(twin) == recorded
    if not isinstance(value, CoderSpec):  # its coder functions are not picklable by name
        assert pickle.loads(pickle.dumps(value)) == value


def test_fields_hold_their_slots():
    for value, _ in RECORDED:
        if isinstance(value, IsoKLGaussianBlock):
            continue  # its fields and cached proposals live in its __dict__
        assert set(value._fields) <= set(type(value).__slots__)
        assert not hasattr(value, "__dict__"), type(value).__name__
    assert CSV_COLUMNS == ResultRow._fields
    assert Code.__slots__ == Code._fields == ("variant", "payload", "budget")
    assert not hasattr(CODE, "__dict__")


def test_equality_reads_only_the_fields():
    # std is derived from the variance, a slot outside equality and repr
    assert Gaussian(0.0, 4.0).std == 2.0 and "std" not in Gaussian._fields
    assert Gaussian(0.0, 4.0) == Gaussian(0.0, 4.0) != Gaussian(0.0, 4.5)
    assert Code(Variant.AD_STAR, 5) != CODE
    # a code's width is derived, outside equality and repr; a fixed-width
    # code's budget is a field, and copies and pickles with it
    assert CODE.depth_or_budget == 3 and "depth_or_budget" not in Code._fields
    mrc = Code(Variant.MRC, 11, budget=4)
    assert mrc != Code(Variant.MRC, 11, budget=5)
    for twin in (copy.copy(mrc), copy.deepcopy(mrc), pickle.loads(pickle.dumps(mrc))):
        assert twin == mrc and twin.budget == twin.depth_or_budget == 4
    assert Gaussian(0.0, 1.0) != Uniform(0.0, 1.0)
    assert len({Gaussian(0.0, 1.0), Gaussian(0.0, 1.0), Gaussian(1.0, 1.0)}) == 2
    assert CODERS[Variant.MRC] == CODERS[Variant.MRC]
