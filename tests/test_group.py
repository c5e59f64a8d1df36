import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from manetsec.group import (
    NodeAttributes,
    WeightConfig,
    elect_leader,
    mobility,
    update_trust,
    weight,
)


# ---------------------------------------------------------------------------
# Mobility
# ---------------------------------------------------------------------------


def test_mobility_constant_trace_is_zero():
    assert mobility([(7.0, 7.0)] * 5) == 0.0


def test_mobility_single_sample_is_zero():
    assert mobility([(3.0, 4.0)]) == 0.0


def test_mobility_hand_value():
    # Displacements 5 then 0 over two steps -> 2.5.
    assert mobility([(0, 0), (3, 4), (3, 4)]) == pytest.approx(2.5)


def test_mobility_rejects_bad_traces():
    with pytest.raises(ValueError):
        mobility([])
    with pytest.raises(ValueError):
        mobility([(0.0, float("nan"))])
    with pytest.raises(ValueError):
        mobility([(0.0, float("inf")), (1.0, 1.0)])


@pytest.mark.parametrize(
    "point", [(math.nan, 0.0), (0.0, -math.inf), (10**400, 0.0), (0.0, -(10**400))], ids=["nan", "inf", "big", "-big"]
)
def test_mobility_names_a_coordinate_that_is_not_finite(point):
    # An int too large for a float is named as a ValueError, not an OverflowError.
    with pytest.raises(ValueError, match="trace coordinates must be finite"):
        mobility([(1.0, 1.0), point])


@pytest.mark.parametrize("field", ["mobility_m", "battery_b", "trust_t"])
@pytest.mark.parametrize("value", [math.nan, math.inf, 10**400, -(10**400)], ids=["nan", "inf", "big", "-big"])
def test_node_attributes_must_be_finite(field, value):
    values = {"mobility_m": 0.5, "battery_b": 0.5, "trust_t": 0.5, field: value}
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        NodeAttributes("n", **values)


_coords = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False)
_traces = st.lists(st.tuples(_coords, _coords), min_size=2, max_size=10)


@given(_traces, _coords, _coords)
@settings(max_examples=100, deadline=None)
def test_mobility_translation_invariant(trace, dx, dy):
    shifted = [(x + dx, y + dy) for x, y in trace]
    assert mobility(shifted) == pytest.approx(mobility(trace), abs=1e-9, rel=1e-9)


@given(_traces, st.floats(min_value=0, max_value=2 * math.pi, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_mobility_rotation_invariant(trace, angle):
    c, s = math.cos(angle), math.sin(angle)
    rotated = [(c * x - s * y, s * x + c * y) for x, y in trace]
    assert mobility(rotated) == pytest.approx(mobility(trace), abs=1e-6, rel=1e-9)


@given(_traces)
@example([(0.0, 5e-324), (0.0, 0.0), (0.0, 0.0)])  # the mean of a subnormal total underflows
def test_mobility_nonnegative_zero_iff_still(trace):
    value = mobility(trace)
    assert value >= 0.0
    still = all(a == b for a, b in zip(trace, trace[1:]))
    assert (value == 0.0) == still


# ---------------------------------------------------------------------------
# Weight and election
# ---------------------------------------------------------------------------


def test_weight_pure_mobility_of_stationary_node():
    cfg = WeightConfig(1.0, 0.0, 0.0)
    attrs = NodeAttributes("n", mobility_m=0.0, battery_b=0.3, trust_t=0.2)
    assert weight(attrs, cfg) == 0.0


def test_weight_hand_value_with_orientation_transform():
    # Raw M plus inverted battery and trust: 0.5*2 + 0.3*(1-0.5) + 0.2*(1-0.9).
    cfg = WeightConfig(0.5, 0.3, 0.2)
    attrs = NodeAttributes("n", mobility_m=2.0, battery_b=0.5, trust_t=0.9)
    assert weight(attrs, cfg) == pytest.approx(1.17)


def test_weight_config_must_sum_to_one():
    with pytest.raises(ValueError):
        WeightConfig(0.5, 0.3, 0.3)
    with pytest.raises(ValueError):
        WeightConfig(-0.2, 0.6, 0.6)
    WeightConfig(0.5, 0.3, 0.2 + 1e-12)  # within tolerance


@pytest.mark.parametrize("w0", [math.nan, math.inf, 10**400])
def test_weight_config_must_be_finite(w0):
    # An int too large for a float is named as a ValueError, not an OverflowError.
    with pytest.raises(ValueError, match="weight factors must be finite"):
        WeightConfig(w0, 0.0, 0.0)


def test_weight_monotone_in_mobility():
    cfg = WeightConfig(0.6, 0.2, 0.2)
    values = [
        weight(NodeAttributes("n", m, 0.5, 0.5), cfg) for m in (0.0, 0.5, 1.0, 3.0, 10.0)
    ]
    assert values == sorted(values)


def test_elect_single_candidate():
    cfg = WeightConfig(0.4, 0.4, 0.2)
    only = NodeAttributes("solo", 1.0, 0.5, 0.5)
    assert elect_leader([only], cfg) == "solo"


def test_elect_argmin_on_mobility():
    cfg = WeightConfig(1.0, 0.0, 0.0)
    candidates = [
        NodeAttributes("A", 3.0, 0.5, 0.5),
        NodeAttributes("B", 1.0, 0.5, 0.5),
        NodeAttributes("C", 2.0, 0.5, 0.5),
    ]
    assert elect_leader(candidates, cfg) == "B"


def test_elect_empty_rejected():
    with pytest.raises(ValueError):
        elect_leader([], WeightConfig(0.4, 0.4, 0.2))


def _brute_force(candidates, cfg):
    best = None
    for attrs in candidates:
        w = weight(attrs, cfg)
        if best is None or w < best[0] or (w == best[0] and attrs.node < best[1]):
            best = (w, attrs.node)
    return best[1]


def test_elect_matches_brute_force_oracle():
    rng = random.Random(17)
    cfg = WeightConfig(0.5, 0.3, 0.2)
    for _ in range(1000):
        size = rng.randint(1, 8)
        candidates = [
            NodeAttributes(
                f"n{idx}",
                mobility_m=rng.choice([0.0, 0.5, 1.0, rng.uniform(0, 5)]),
                battery_b=rng.choice([0.25, 0.5, rng.random()]),
                trust_t=rng.choice([0.25, 0.5, rng.random()]),
            )
            for idx in range(size)
        ]
        # Inject deliberate weight ties by duplicating attribute tuples.
        if size >= 2 and rng.random() < 0.5:
            dup = candidates[0]
            candidates[1] = NodeAttributes("n_dup", dup.mobility_m, dup.battery_b, dup.trust_t)
        assert elect_leader(candidates, cfg) == _brute_force(candidates, cfg)


def test_elect_permutation_invariant():
    rng = random.Random(3)
    cfg = WeightConfig(0.4, 0.4, 0.2)
    candidates = [
        NodeAttributes(f"n{idx}", rng.uniform(0, 3), rng.random(), rng.random()) for idx in range(6)
    ]
    expected = elect_leader(candidates, cfg)
    for _ in range(20):
        rng.shuffle(candidates)
        assert elect_leader(candidates, cfg) == expected


def test_common_scaling_preserves_argmin():
    # Pre-normalization scaling of all three factors cannot change the winner.
    rng = random.Random(8)
    raw = (0.5, 0.3, 0.2)
    candidates = [
        NodeAttributes(f"n{idx}", rng.uniform(0, 3), rng.random(), rng.random()) for idx in range(6)
    ]

    def argmin(factors):
        w0, w1, w2 = factors
        scores = [
            (w0 * a.mobility_m + w1 * (1 - a.battery_b) + w2 * (1 - a.trust_t), a.node)
            for a in candidates
        ]
        return min(scores)[1]

    for scale in (0.5, 2.0, 10.0):
        assert argmin(raw) == argmin(tuple(scale * f for f in raw))


# ---------------------------------------------------------------------------
# Trust and capacity
# ---------------------------------------------------------------------------


def test_trust_clamps():
    assert update_trust(1.0, "forwarded") == 1.0
    assert update_trust(0.0, "malformed") == 0.0


def test_trust_hand_value():
    assert update_trust(0.5, "dropped") == pytest.approx(0.45)


def test_trust_unknown_observation():
    with pytest.raises(ValueError):
        update_trust(0.5, "sneezed")
