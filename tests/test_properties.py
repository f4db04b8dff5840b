"""Property tests: the two-way trees decide every generic phase choice exactly.

For phases that pass the builders' genericity check, the even-dimension tree
at d = 4, 6, 8 and the d = 5 mod3 tree have identity confusion, and Monte
Carlo sampled from them never misdecides. Skipped when Hypothesis is not
installed.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from locc_lab.protocols import build_twoway_even, build_twoway_mod3, evaluate_exact  # noqa: E402
from locc_lab.simulate import SimConfig, run_monte_carlo  # noqa: E402
from locc_lab.states import build_even_family, build_mod3_family, even_spec, mod3_spec  # noqa: E402

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
