import json
import warnings

import numpy as np
import pytest

from locc_lab import oneway, simulate
from locc_lab.errors import BadPriors, MalformedTree, SpecInvalid
from locc_lab.protocols import Decide, Measure, build_twoway_mod3, make_tree
from locc_lab.oneway import randomized_error_exact
from locc_lab.simulate import SimConfig, compare_exact_vs_mc, run_monte_carlo, run_randomized_oneway
from locc_lab.states import (
    MaxEntSet,
    build_even_family,
    build_mod3_family,
    even_spec,
    lattice_triple_set,
    mod3_spec,
)

UNIFORM3 = (1 / 3, 1 / 3, 1 / 3)


def even4_ordered_ivu():
    s = build_even_family(even_spec(4))
    return MaxEntSet(d=4, unitaries=(s.unitaries[0], s.unitaries[2], s.unitaries[1]))


def test_perfect_tree_scores_exactly_one():
    spec = mod3_spec(5)
    tree = build_twoway_mod3(spec)
    s = build_mod3_family(spec)
    rep = run_monte_carlo(tree, s, SimConfig(seed=3, trials=10_000, priors=UNIFORM3))
    assert rep.success_rate == 1.0
    assert rep.exact_success == 1.0
    assert rep.z_score == 0.0
    assert int(rep.empirical_confusion.sum()) == 10_000
    # every sampled decision matched its prepared state
    assert np.all(rep.empirical_confusion == np.diag(np.diag(rep.empirical_confusion)))


def test_decide_only_tree_uniform_success():
    s = build_even_family(even_spec(4))
    tree = make_tree(Decide(0))
    rep = run_monte_carlo(tree, s, SimConfig(seed=5, trials=30_000, priors=UNIFORM3))
    sigma = np.sqrt((1 / 3) * (2 / 3) / 30_000)
    assert abs(rep.success_rate - 1 / 3) <= 3 * sigma


def test_reproducibility_bit_identical():
    spec = mod3_spec(5)
    tree = build_twoway_mod3(spec)
    s = build_mod3_family(spec)
    cfg = SimConfig(seed=123, trials=2_000, priors=UNIFORM3)
    a = run_monte_carlo(tree, s, cfg)
    b = run_monte_carlo(tree, s, cfg)
    assert np.array_equal(a.empirical_confusion, b.empirical_confusion)
    assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(b.to_json(), sort_keys=True)


def test_different_seeds_differ():
    s = build_even_family(even_spec(4))
    tree = make_tree(Decide(0))
    a = run_monte_carlo(tree, s, SimConfig(seed=1, trials=500, priors=UNIFORM3))
    b = run_monte_carlo(tree, s, SimConfig(seed=2, trials=500, priors=UNIFORM3))
    assert not np.array_equal(a.empirical_confusion, b.empirical_confusion)


def test_randomized_oneway_matches_exact():
    rep = run_randomized_oneway(
        even4_ordered_ivu(), SimConfig(seed=17, trials=20_000, priors=UNIFORM3)
    )
    assert abs(rep.exact_success - 5 / 6) <= 1e-9
    assert abs(rep.z_score) <= 3.5


def test_randomized_oneway_standardizes_internally():
    s = build_mod3_family(mod3_spec(5))
    rep = run_randomized_oneway(s, SimConfig(seed=9, trials=5_000, priors=UNIFORM3))
    assert abs(rep.z_score) <= 4.0


def random_unitary(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def dense_triple():
    """The even d=4 set under a random dense rotation on each side."""
    rng = np.random.default_rng(3)
    left, right = random_unitary(rng, 4), random_unitary(rng, 4)
    s = build_even_family(even_spec(4))
    return MaxEntSet(d=4, unitaries=tuple(left @ u @ right for u in s.unitaries), label="even4|dense")


def even16_102():
    s = build_even_family(even_spec(16))
    return MaxEntSet(d=16, unitaries=tuple(s.unitaries[i] for i in (1, 0, 2)), label="even16|102")


def test_randomized_oneway_eigensolves_once(monkeypatch):
    calls = []
    diagonalize = oneway.diagonalize_unitary

    def counted(u):
        calls.append(u)
        return diagonalize(u)

    monkeypatch.setattr(oneway, "diagonalize_unitary", counted)
    cases = [
        (build_mod3_family(mod3_spec(5)), 0),
        (even16_102(), 0),
        (lattice_triple_set(((0, 1), (2, 3), (3, 0))), 0),
        (dense_triple(), 1),
    ]
    for s, eigensolves in cases:
        calls.clear()
        u1 = np.asarray(s.unitaries[1]) @ np.conj(np.asarray(s.unitaries[0]).T)
        # U_1 U_0^dag is not diagonal, so the set is rotated: a monomial one
        # is read cycle by cycle, a dense one eigensolved once
        assert np.abs(u1 - np.diag(np.diag(u1))).max() > 0.1
        rep = run_randomized_oneway(s, SimConfig(seed=9, trials=100, priors=UNIFORM3))
        assert len(calls) == eigensolves, s.label
        assert abs(rep.exact_success - (1.0 - randomized_error_exact(s, UNIFORM3))) <= 1e-15


def test_randomized_protocol_rejects_unsorted_priors():
    s = even4_ordered_ivu()
    priors = (0.2, 0.3, 0.5)
    with pytest.raises(BadPriors, match="sorted descending"):
        randomized_error_exact(s, priors)
    with pytest.raises(BadPriors, match="sorted descending"):
        run_randomized_oneway(s, SimConfig(seed=1, trials=10, priors=priors))


def test_builtin_protocol_pairs_consistent_at_scale():
    from locc_lab.protocols import build_twoway_even
    from locc_lab.states import even_spec

    cases = [
        (even_spec(4), build_even_family, build_twoway_even),
        (even_spec(6), build_even_family, build_twoway_even),
        (mod3_spec(5), build_mod3_family, build_twoway_mod3),
    ]
    for spec, build, protocol in cases:
        mes = build(spec)
        rep = run_monte_carlo(
            protocol(spec), mes, SimConfig(seed=31, trials=100_000, priors=UNIFORM3)
        )
        assert abs(rep.z_score) <= 4.0
        assert rep.success_rate == 1.0  # the exact protocols never misdecide


def test_compare_exact_vs_mc_clean():
    spec = mod3_spec(5)
    tree = build_twoway_mod3(spec)
    s = build_mod3_family(spec)
    out = compare_exact_vs_mc(tree, s, SimConfig(seed=21, trials=5_000, priors=UNIFORM3))
    assert out["flags"] == []
    assert out["max_abs_z"] <= 4.0


def test_corrupted_tree_rejected_at_validation():
    k0 = np.diag([1.0, 0.0]).astype(complex)
    k1 = np.diag([0.0, 0.9]).astype(complex)
    bad = Measure(party="A", kraus=(k0, k1), children=(Decide(0), Decide(1)))
    tree = make_tree(Decide(0))
    tree = tree.__class__(root=bad, round_count=0)
    s = MaxEntSet(d=2, unitaries=(np.eye(2, dtype=complex),))
    with pytest.raises(MalformedTree):
        run_monte_carlo(tree, s, SimConfig(seed=1, trials=10, priors=(1.0,)))


def test_zero_trials_rejected():
    s = build_even_family(even_spec(4))
    tree = make_tree(Decide(0))
    with pytest.raises(SpecInvalid):
        run_monte_carlo(tree, s, SimConfig(seed=1, trials=0, priors=UNIFORM3))


def test_csv_layout():
    s = build_even_family(even_spec(4))
    tree = make_tree(Decide(0))
    rep = run_monte_carlo(tree, s, SimConfig(seed=4, trials=300, priors=UNIFORM3))
    lines = rep.to_csv().strip().split("\n")
    assert lines[0] == "prepared,decided,count,rate"
    assert len(lines) == 1 + 9
    total = sum(int(line.split(",")[2]) for line in lines[1:])
    assert total == 300


@pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
def test_out_of_range_seed_rejected(seed):
    with pytest.raises(SpecInvalid, match="seed"):
        run_randomized_oneway(even4_ordered_ivu(), SimConfig(seed=seed, trials=10, priors=UNIFORM3))


def test_seeds_above_2_63_key_distinct_streams():
    # the largest seeds are used as the full 64-bit key, without aliasing
    s = even4_ordered_ivu()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a = run_randomized_oneway(s, SimConfig(seed=2**64 - 1, trials=200, priors=UNIFORM3))
        b = run_randomized_oneway(s, SimConfig(seed=2**63, trials=200, priors=UNIFORM3))
    assert not np.array_equal(a.empirical_confusion, b.empirical_confusion)


@pytest.mark.parametrize("elements", [1, 37, 2**12, 2**16])
def test_randomized_counts_do_not_depend_on_chunk_size(monkeypatch, elements):
    s = even4_ordered_ivu()
    cfg = SimConfig(seed=8, trials=777, priors=(0.5, 0.3, 0.2))
    reference = run_randomized_oneway(s, cfg)
    monkeypatch.setattr(simulate, "CHUNK_ELEMENTS", elements)
    rep = run_randomized_oneway(s, cfg)
    assert np.array_equal(rep.empirical_confusion, reference.empirical_confusion)
    assert json.dumps(rep.to_json(), sort_keys=True) == json.dumps(reference.to_json(), sort_keys=True)
