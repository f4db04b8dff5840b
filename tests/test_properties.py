"""Property tests over generic phase choices.

For phases that pass the builders' genericity check, the even-dimension tree
at d = 4, 6, 8 and the d = 5 mod3 tree have identity confusion, and Monte
Carlo sampled from them never misdecides. The one-way certificate finds a
forced pair on the even and mod3 families after any local monomial rotation,
with no family spec, and the dense oracle finds the same pair. As the even
family's omega nears the real axis, its nearest degeneracy locus, the rank
cut the certificate keeps shrinks monotonically while the verdict holds.
Every spec kind, over drawn phases and labels, comes back equal from its
to_json document, which holds the kind and the spec's fields alone. The even
tree's rotation, read from three signs, is the one a search over all four
Pauli conjugations finds.
Skipped when Hypothesis is not installed.
"""

import dataclasses
import json

import numpy as np
import pytest

import oracles
from test_states import spec_from_json

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from locc_lab.oneway import ONE_WAY_IMPOSSIBLE, certify_impossible  # noqa: E402
from locc_lab.protocols import _select_rotation, build_twoway_even, build_twoway_mod3, evaluate_exact  # noqa: E402
from locc_lab.simulate import SimConfig, run_monte_carlo  # noqa: E402
from locc_lab.states import (  # noqa: E402
    GENERICITY_MARGIN,
    EvenSpec,
    KSpec,
    LatticeTripleSpec,
    MaxEntSet,
    Mod3Spec,
    build_family,
    even_spec,
    mod3_spec,
)

UNIFORM3 = (1 / 3, 1 / 3, 1 / 3)
TOL = 1e-9

turns = st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False)
# derandomized and without an example database: the same examples every run
PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)


phases = turns.map(lambda f: np.exp(2j * np.pi * f))


def k_specs(n):
    """KSpecs on distinct labels of length n, one drawn alpha per label."""
    labels = st.lists(st.tuples(*[st.integers(0, 3)] * n), min_size=1, max_size=5, unique=True)
    return labels.flatmap(lambda ls: st.builds(
        KSpec, st.just(ls), st.integers(1, 4), st.lists(phases, min_size=len(ls), max_size=len(ls)).map(tuple)
    ))


specs = st.one_of(
    st.builds(EvenSpec, st.sampled_from((4, 6, 10)), phases, phases),
    st.builds(Mod3Spec, st.sampled_from((5, 8, 11)), phases, phases),
    k_specs(1),
    k_specs(2),
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=3, max_size=3, unique=True).map(LatticeTripleSpec),
)


def assert_exact_everywhere(tree, mes):
    ev = evaluate_exact(tree, mes)
    assert np.abs(ev.confusion - np.eye(3)).max() <= TOL
    rep = run_monte_carlo(tree, mes, SimConfig(seed=0, trials=2_000, priors=UNIFORM3))
    assert rep.success_rate == 1.0


@PROPERTY
@given(d=st.sampled_from((4, 6, 8)), fo=turns, fg=turns)
def test_twoway_even_exact_for_generic_phases(d, fo, fg):
    spec = even_spec(d, omega=np.exp(2j * np.pi * fo), gamma=np.exp(2j * np.pi * fg))
    assume(spec.is_generic)
    assert_exact_everywhere(build_twoway_even(spec), build_family(spec))


@PROPERTY
@given(fo=turns, fg=turns)
def test_twoway_mod3_exact_for_generic_phases(fo, fg):
    spec = mod3_spec(5, omega=np.exp(2j * np.pi * fo), gamma=np.exp(2j * np.pi * fg))
    assume(spec.is_generic)
    assert_exact_everywhere(build_twoway_mod3(spec), build_family(spec))


def random_monomial(rng, d):
    """A random permutation matrix times random unit phases."""
    return np.eye(d)[rng.permutation(d)] * np.exp(2j * np.pi * rng.random(d))


@PROPERTY
@given(
    family=st.sampled_from((("even", 4), ("even", 6), ("even", 8), ("mod3", 5), ("mod3", 8))),
    fo=turns,
    fg=turns,
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_certificate_finds_forced_pair_after_monomial_rotation(family, fo, fg, seed):
    kind, d = family
    make_spec = even_spec if kind == "even" else mod3_spec
    spec = make_spec(d, omega=np.exp(2j * np.pi * fo), gamma=np.exp(2j * np.pi * fg))
    assume(spec.is_generic)
    rng = np.random.default_rng(seed)
    left, right = random_monomial(rng, d), random_monomial(rng, d)
    rot = MaxEntSet(d=d, unitaries=tuple(left @ u @ right for u in build_family(spec).unitaries))
    cert = certify_impossible(rot)
    assert cert.conclusion == ONE_WAY_IMPOSSIBLE
    assert oracles.certify_impossible(rot)["forced_pair"] == cert.forced_pair


@PROPERTY
@given(d=st.sampled_from((4, 6, 8)), fg=turns, axis=st.sampled_from((1, -1)), side=st.sampled_from((1, -1)))
def test_rank_cut_shrinks_as_omega_nears_the_real_axis(d, fg, axis, side):
    # omega at distance eps from the real axis, the nearest of the family's
    # genericity distances while gamma stays well off it; the kept rank cut
    # is about sqrt(d/2 - 1) / (d/2) times eps
    gamma = np.exp(2j * np.pi * fg)
    assume(abs(gamma.imag) > 0.1)
    kept = []
    for eps in (1e-2, 1e-3, 1e-4, 1e-5):
        spec = even_spec(d, omega=axis * np.exp(1j * side * np.arcsin(eps)), gamma=gamma)
        assert min(spec.genericity().values()) == pytest.approx(eps, rel=1e-9)
        cert = certify_impossible(build_family(spec))
        assert cert.conclusion == ONE_WAY_IMPOSSIBLE
        kept.append(cert.residuals["rank_cut_kept"])
    assert all(a > b for a, b in zip(kept, kept[1:])), kept


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(spec=specs)
def test_every_spec_survives_a_json_round_trip(spec):
    doc = json.loads(json.dumps(spec.to_json()))
    assert set(doc) == {"kind", *(f.name for f in dataclasses.fields(spec))}
    back = spec_from_json(doc)
    assert type(back) is type(spec) and back == spec
    assert (back.k, back.d, back.genericity()) == (spec.k, spec.d, spec.genericity())


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(omega=phases, gamma=phases)
def test_rotation_from_three_signs_matches_search(omega, gamma):
    # the closed form reads the rotation off the signs of Im omega, Im gamma
    # and Im(conj(gamma) omega); the oracle searches all four conjugations and
    # asserts exactly one hit, and both agree bit for bit
    assume(min(abs(np.imag(v)) for v in (omega, gamma, np.conj(gamma) * omega)) > GENERICITY_MARGIN)
    got, expected = _select_rotation(omega, gamma), oracles.select_rotation(omega, gamma)
    assert got[0] == expected[0]
    assert [np.complex128(v).tobytes() for v in got[1:]] == [np.complex128(v).tobytes() for v in expected[1:]]
