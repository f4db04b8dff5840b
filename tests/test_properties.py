"""Property tests over generic phase choices.

For phases that pass the builders' genericity check, the even-dimension tree
at d = 4, 6, 8 and the d = 5 mod3 tree have identity confusion, and Monte
Carlo sampled from them never misdecides. The one-way certificate finds a
forced pair on the even and mod3 families after any local monomial rotation,
with no family spec, and the dense oracle finds the same pair. Skipped when
Hypothesis is not installed.
"""

import numpy as np
import pytest

import oracles

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from locc_lab.oneway import ONE_WAY_IMPOSSIBLE, certify_impossible  # noqa: E402
from locc_lab.protocols import build_twoway_even, build_twoway_mod3, evaluate_exact  # noqa: E402
from locc_lab.simulate import SimConfig, run_monte_carlo  # noqa: E402
from locc_lab.states import (  # noqa: E402
    MaxEntSet,
    build_family,
    build_even_family,
    build_mod3_family,
    even_spec,
    mod3_spec,
)

UNIFORM3 = (1 / 3, 1 / 3, 1 / 3)
TOL = 1e-9

turns = st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False)
# derandomized and without an example database: the same examples every run
PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)


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
    assert_exact_everywhere(build_twoway_even(spec), build_even_family(spec))


@PROPERTY
@given(fo=turns, fg=turns)
def test_twoway_mod3_exact_for_generic_phases(fo, fg):
    spec = mod3_spec(5, omega=np.exp(2j * np.pi * fo), gamma=np.exp(2j * np.pi * fg))
    assume(spec.is_generic)
    assert_exact_everywhere(build_twoway_mod3(spec), build_mod3_family(spec))


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
