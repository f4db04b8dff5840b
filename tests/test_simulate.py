import json
import warnings

import numpy as np
import pytest

from locc_lab import oneway
from locc_lab.errors import BadPriors, MalformedTree, SpecInvalid
from locc_lab.protocols import Decide, Measure, ProtocolTree, build_twoway_mod3
from locc_lab.oneway import randomized_error_exact
from locc_lab.cli import _write_csv
from locc_lab.simulate import SimConfig, run_monte_carlo, run_randomized_oneway, sample_confusion
from locc_lab.states import (
    MaxEntSet,
    build_family,
    even_spec,
    lattice_triple_set,
    mod3_spec,
)

UNIFORM3 = (1 / 3, 1 / 3, 1 / 3)


def even4_ordered_ivu():
    s = build_family(even_spec(4))
    return MaxEntSet(d=4, unitaries=(s.unitaries[0], s.unitaries[2], s.unitaries[1]))


def test_perfect_tree_scores_exactly_one():
    spec = mod3_spec(5)
    tree = build_twoway_mod3(spec)
    s = build_family(spec)
    rep = run_monte_carlo(tree, s, SimConfig(seed=3, trials=10_000, priors=UNIFORM3))
    assert rep.success_rate == 1.0
    assert rep.exact_success == 1.0
    assert rep.z_score == 0.0
    assert int(rep.empirical_confusion.sum()) == 10_000
    # every sampled decision matched its prepared state
    assert np.all(rep.empirical_confusion == np.diag(np.diag(rep.empirical_confusion)))


def test_decide_only_tree_uniform_success():
    s = build_family(even_spec(4))
    tree = ProtocolTree(Decide(0))
    rep = run_monte_carlo(tree, s, SimConfig(seed=5, trials=30_000, priors=UNIFORM3))
    sigma = np.sqrt((1 / 3) * (2 / 3) / 30_000)
    assert abs(rep.success_rate - 1 / 3) <= 3 * sigma


def test_reproducibility_bit_identical():
    spec = mod3_spec(5)
    tree = build_twoway_mod3(spec)
    s = build_family(spec)
    cfg = SimConfig(seed=123, trials=2_000, priors=UNIFORM3)
    a = run_monte_carlo(tree, s, cfg)
    b = run_monte_carlo(tree, s, cfg)
    assert np.array_equal(a.empirical_confusion, b.empirical_confusion)
    assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(b.to_json(), sort_keys=True)


def test_different_seeds_differ():
    s = build_family(even_spec(4))
    tree = ProtocolTree(Decide(0))
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
    s = build_family(mod3_spec(5))
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
    s = build_family(even_spec(4))
    return MaxEntSet(d=4, unitaries=tuple(left @ u @ right for u in s.unitaries), label="even4|dense")


def even16_102():
    s = build_family(even_spec(16))
    return MaxEntSet(d=16, unitaries=tuple(s.unitaries[i] for i in (1, 0, 2)), label="even16|102")


def test_randomized_oneway_eigensolves_once(monkeypatch):
    calls = []
    diagonalize = oneway.diagonalize_unitary

    def counted(u):
        calls.append(u)
        return diagonalize(u)

    monkeypatch.setattr(oneway, "diagonalize_unitary", counted)
    cases = [
        (build_family(mod3_spec(5)), 0),
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
        (even_spec(4), build_family, build_twoway_even),
        (even_spec(6), build_family, build_twoway_even),
        (mod3_spec(5), build_family, build_twoway_mod3),
    ]
    for spec, build, protocol in cases:
        mes = build(spec)
        rep = run_monte_carlo(
            protocol(spec), mes, SimConfig(seed=31, trials=100_000, priors=UNIFORM3)
        )
        assert abs(rep.z_score) <= 4.0
        assert rep.success_rate == 1.0  # the exact protocols never misdecide


def test_mc_report_cells_clean():
    spec = mod3_spec(5)
    tree = build_twoway_mod3(spec)
    s = build_family(spec)
    rep = run_monte_carlo(tree, s, SimConfig(seed=21, trials=5_000, priors=UNIFORM3))
    assert rep.cell_z.shape == (3, 3)
    assert rep.to_json()["flags"] == []
    assert rep.max_abs_z <= 4.0


def test_mc_flags_cells_beyond_the_bound():
    # row 0 sums to 3/4, so it is sampled as (2/3, 1/3, 0) against exact
    # values (1/2, 1/4, 0): its first two cells lie far beyond the bound
    confusion = np.array([[0.5, 0.25, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    rep = sample_confusion(confusion, SimConfig(seed=2, trials=3_000, priors=UNIFORM3))
    flags = rep.to_json()["flags"]
    assert [cell for cell, _ in flags] == ["0,0", "0,1"] and all(z > 4.0 for _, z in flags)
    assert rep.cell_z[1:].tolist() == [[0.0] * 3] * 2 and rep.cell_z[0, 2] == 0.0
    assert rep.max_abs_z == max(abs(rep.z_score), *np.abs(rep.cell_z).ravel()) == flags[0][1]
    # a randomized report is sampled from its exact confusion the same way:
    # its largest abs(z) covers the cells too, and none is flagged
    one_way = run_randomized_oneway(even4_ordered_ivu(), SimConfig(seed=3, trials=500, priors=UNIFORM3))
    assert one_way.cell_z.shape == (3, 3) and one_way.to_json()["flags"] == []
    assert one_way.max_abs_z == max(abs(one_way.z_score), *np.abs(one_way.cell_z).ravel())


def test_corrupted_tree_rejected_at_validation():
    # a tree is checked when it is made, so a corrupted one never reaches the sampler
    k0 = np.diag([1.0, 0.0]).astype(complex)
    k1 = np.diag([0.0, 0.9]).astype(complex)
    bad = Measure(party="A", kraus=(k0, k1), children=(Decide(0), Decide(1)))
    with pytest.raises(MalformedTree):
        ProtocolTree(root=bad)


def test_stderr_is_zero_when_every_trial_is_right():
    spec = mod3_spec(5)
    cfg = SimConfig(seed=42, trials=2_000, priors=UNIFORM3)
    rep = run_monte_carlo(build_twoway_mod3(spec), build_family(spec), cfg)
    assert (rep.success_rate, rep.stderr) == (1.0, 0.0)


def test_stderr_of_mixed_outcomes_unchanged():
    # the variance was floored at 1e-300, which only an all-right or
    # all-wrong run reaches; any other run keeps its stderr bit for bit
    cfg = SimConfig(seed=5, trials=3_000, priors=UNIFORM3)
    rep = run_monte_carlo(ProtocolTree(Decide(0)), build_family(even_spec(4)), cfg)
    rate = rep.success_rate
    assert 0.0 < rate < 1.0
    assert rep.stderr == float(np.sqrt(max(rate * (1 - rate), 1e-300) / 3_000))


def test_zero_trials_rejected():
    s = build_family(even_spec(4))
    tree = ProtocolTree(Decide(0))
    with pytest.raises(SpecInvalid):
        run_monte_carlo(tree, s, SimConfig(seed=1, trials=0, priors=UNIFORM3))


def test_csv_layout(tmp_path):
    # one row per cell: counts and rates alone, or after the exact probability
    s = build_family(even_spec(4))
    tree = ProtocolTree(Decide(0))
    rep = run_monte_carlo(tree, s, SimConfig(seed=4, trials=300, priors=UNIFORM3))
    target = tmp_path / "cells.csv"
    _write_csv(target, counts=rep.empirical_confusion)
    lines = target.read_text().strip().split("\n")
    assert lines[0] == "prepared,decided,count,rate"
    assert len(lines) == 1 + 9
    total = sum(int(line.split(",")[2]) for line in lines[1:])
    assert total == 300
    rows = rep.empirical_confusion.sum(axis=1)
    assert [float(line.split(",")[3]) for line in lines[1::3]] == [1.0, 1.0, 1.0] and rows.min() > 0
    _write_csv(target, np.tile([1.0, 0.0, 0.0], (3, 1)), rep.empirical_confusion)
    lines = target.read_text().strip().split("\n")
    assert lines[0] == "prepared,decided,probability,count,rate"
    assert lines[1] == f"0,0,1.0,{rows[0]},1.0" and lines[2] == "0,1,0.0,0,0.0"


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
