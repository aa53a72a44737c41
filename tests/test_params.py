import json
import math

import numpy as np
import pytest

from surpluslab import errors
from surpluslab.cli import load_params
from surpluslab.params import (DegreeSequence, PVector, ThetaVector,
                               regime_gap, validate)

EX12 = [1, 2, 1, 3, 3, 0, 0, 0, 0, 0, 0, 0]


def test_validate_twelve_vertex_example():
    seq = validate(EX12, "tree")
    assert seq.s == 12
    assert seq.N == 5


def test_validate_single_edge():
    seq = validate([0, 0], "tree")
    assert seq.s == 2
    assert seq.N == 0


def test_validate_sum_mismatch():
    with pytest.raises(errors.SumMismatch):
        validate([3, 1], "tree")


def test_validate_negative_entry():
    with pytest.raises(errors.NegativeEntry):
        validate([2, -1, 0], "tree")


def test_validate_sorting_flags():
    # degrees are positional: unsorted input is kept as given
    raw = [1, 2, 0, 0, 0]
    assert validate(raw, "tree").degrees == (1, 2, 0, 0, 0)


def test_validate_surplus_sum():
    # handshake: sum(d) = s + 2k - 2 (double edge V1V2 has degrees 2,2 => d=(1,1), k=1)
    seq = validate([1, 1], "surplus", k=1)
    assert seq.k == 1
    with pytest.raises(errors.SumMismatch):
        validate([1, 1], "surplus", k=2)
    with pytest.raises(errors.SumMismatch):
        validate([1, 0], "surplus", k=1)


def test_validate_surplus_needs_a_vertex():
    # [] meets the k = 1 handshake sum 0 = s + 2k - 2, but has no vertex to glue onto
    with pytest.raises(errors.ValidationError):
        validate([], "surplus", k=1)


@pytest.mark.parametrize("make", [
    lambda: validate([True, False, False], "tree"),
    lambda: validate([2, 1, 1, 0], "surplus", k=True),
    lambda: PVector((True,)),
    lambda: PVector((), p_inf=True),
    lambda: ThetaVector(True),
    lambda: ThetaVector(0.0, (True,)),
], ids=["degrees", "k", "p", "p_inf", "theta0", "theta"])
def test_booleans_are_not_numbers(make):
    # each would pass as 1 or 0; JSON true and false are no numbers
    with pytest.raises(errors.ValidationError):
        make()


def test_surplus_plus_zeros_is_tree_kind():
    for degs, k in [((1, 1), 1), ((2, 2), 2), ((2, 1, 1, 0), 1), ((4, 0), 2)]:
        seq = validate(list(degs), "surplus", k=k)
        tree_seq = seq.to_tree_kind()
        assert tree_seq.kind == "tree"
        assert tree_seq.s == seq.s + 2 * k


def test_validate_half_edge_parity():
    validate([2, 2], "half-edge")
    with pytest.raises(errors.SumMismatch):
        validate([3, 2], "half-edge")


def test_stats_twelve_vertex_example():
    st = validate(EX12, "tree")
    assert st.sigma ** 2 == pytest.approx(14)
    assert st.lam == pytest.approx(math.sqrt(14) / 12)
    assert st.N == 5


def test_stats_degenerate_and_small():
    st = validate([1, 1, 0, 0], "tree")
    assert st.sigma == 0 and st.lam == 0
    st = validate([2, 2, 0, 0, 0, 0], "tree")
    assert st.sigma ** 2 == pytest.approx(4)
    assert st.lam == pytest.approx(1 / 3)


def test_sigma_zero_whenever_degrees_at_most_one():
    for ones in range(6):
        seq = validate([1] * ones + [0] * 2, "tree")
        assert seq.sigma == 0


def test_serialize_validate_idempotent(tmp_path):
    def reload(obj):
        path = tmp_path / "params.json"
        path.write_text(json.dumps(obj))
        return load_params(str(path))

    seq = validate(EX12, "tree")
    again = reload({"kind": "tree", "degrees": EX12})
    assert again == seq
    assert reload({"kind": again.kind, "degrees": list(again.degrees)}) == again
    surplus = validate([1, 1], "surplus", k=1)
    assert reload({"kind": "surplus", "k": 1, "degrees": [1, 1]}) == surplus
    assert reload({"p": [0.5, 0.25], "p_inf": 0.25}) == PVector((0.5, 0.25),
                                                                0.25)
    assert reload({"theta0": 0.6, "theta": [0.8]}) == ThetaVector(0.6, (0.8,))


def test_pvector_invariants():
    PVector((0.5, 0.5))
    PVector((0.5, 0.25), p_inf=0.25)
    PVector((), p_inf=1.0)
    with pytest.raises(errors.SumMismatch):
        PVector((0.5, 0.25))
    with pytest.raises(errors.NotSorted):
        PVector((0.25, 0.5), p_inf=0.25)
    assert PVector((0.6, 0.4)).sigma == pytest.approx(math.hypot(0.6, 0.4))


def test_theta_invariants():
    t = ThetaVector(1.0)
    assert t.mu_infinite
    t = ThetaVector(0.0, (1.0,))
    assert not t.mu_infinite
    with pytest.raises(errors.SumMismatch):
        ThetaVector(0.5, (0.5,))
    with pytest.raises(errors.NotSorted):
        ThetaVector(0.0, (0.3, 0.5, math.sqrt(1 - 0.34)))


def test_regime_gap_p_target():
    dn = validate([1, 1, 0, 0], "tree")
    target = PVector((0.25, 0.25), p_inf=0.5)
    gap = regime_gap(dn, target)
    assert gap.target_kind == "P"
    assert gap.max_gap() == pytest.approx(0.0)
    assert gap.s == 4


def test_regime_gap_theta_target():
    dn = validate([2, 2, 0, 0, 0, 0], "tree")
    theta = ThetaVector(0.0, (math.sqrt(0.5), math.sqrt(0.5)))
    gap = regime_gap(dn, theta)
    assert gap.gaps[0] == pytest.approx(abs(2 / 2 - math.sqrt(0.5)))
    assert gap.gaps[1] == pytest.approx(abs(2 / 2 - math.sqrt(0.5)))
    # d1/s = 1/3 is not small for Hypothesis-2 purposes
    assert gap.d1_over_s == pytest.approx(1 / 3)
    assert not gap.d1_over_s_small


def test_degree_sequence_hash_is_kept_and_cache_lookups_hit():
    import dataclasses
    import pickle

    from surpluslab import samplers
    ladder = [2] * 64 + [0] * 64
    a, b = validate(ladder, "surplus", k=1), validate(ladder, "surplus", k=1)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != validate(ladder, "half-edge")
    assert a != DegreeSequence(a.degrees, a.kind, 2)
    copy = pickle.loads(pickle.dumps(a))
    assert copy == a and hash(copy) == hash(a)
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.k = 2
    samplers._dk_path(a)
    hits = samplers._dk_path.cache_info().hits
    samplers._dk_path(b)
    assert samplers._dk_path.cache_info().hits == hits + 1
