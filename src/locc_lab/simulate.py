"""Seeded Monte Carlo execution of protocol trees.

A tree's outcome, once the prepared state is fixed, follows exactly the
decision probabilities that evaluate_exact computes, so run_monte_carlo
walks the tree, checked when it was made, once, exactly, and
sample_confusion samples that walk: one Philox stream keyed by the seed
draws the prepared-state counts, then one multinomial per prepared state
over its exact row. A caller that has walked the tree already samples its
confusion directly. A sampled report carries each cell's z-score against
its exact row besides the success rate's. The randomized one-way protocol
draws fresh dephasing angles and Alice's outcome on every trial from one
Philox stream keyed by the seed: each trial reads d + 3 uniforms in trial
order (prepared state, d angles, Alice's outcome, guess), Bob's two
projections are computed for the drawn outcome alone, O(d^2) per trial, and
trials are evaluated in chunks whose size never changes the counts. Both
are reproducible and independent of execution order.
"""

from dataclasses import dataclass

import numpy as np

from .errors import SpecInvalid
from .measurements import _check_priors
from .numerics import _fourier
from .oneway import randomized_error_exact, randomized_priors, standardize_triple
from .protocols import evaluate_exact

# complex elements in one (chunk, d) temporary of run_randomized_oneway:
# a chunk holds CHUNK_ELEMENTS // d trials, and at least one
CHUNK_ELEMENTS = 2**12

# a Monte Carlo success rate, or confusion cell, is consistent with its exact
# value while its z-score stays within this bound
_MC_Z_BOUND = 4.0


@dataclass(frozen=True)
class SimConfig:
    seed: int
    trials: int
    priors: tuple

    def validate(self, k):
        # the seed keys a 64-bit Philox counter; out-of-range seeds would alias
        if not 0 <= self.seed < 2**64:
            raise SpecInvalid(f"seed must lie in [0, 2**64), got {self.seed}")
        if self.trials < 1:
            raise SpecInvalid(f"need at least one trial, got {self.trials}")
        _check_priors(self.priors, k)
        return self


@dataclass(frozen=True)
class SimReport:
    empirical_confusion: np.ndarray  # integer counts, prepared x decided
    success_rate: float
    stderr: float
    exact_success: float
    z_score: float
    trials: int
    seed: int
    cell_z: np.ndarray = None  # per-cell z against the exact rows sampled, if any

    @property
    def max_abs_z(self):
        """The largest abs(z) over the success rate and the cells."""
        cells = [] if self.cell_z is None else np.abs(self.cell_z).ravel().tolist()
        return max([abs(self.z_score), *cells])

    def to_json(self):
        out = {
            "empirical_confusion": self.empirical_confusion.tolist(),
            "success_rate": self.success_rate,
            "stderr": self.stderr,
            "exact_success": self.exact_success,
            "z_score": self.z_score,
            "trials": self.trials,
            "seed": self.seed,
        }
        if self.cell_z is not None:
            # the cells whose abs(z) exceeds the bound, as ["i,j", z]
            out["cell_z"] = self.cell_z.tolist()
            out["flags"] = [[f"{i},{j}", float(z)] for (i, j), z in np.ndenumerate(self.cell_z) if abs(z) > _MC_Z_BOUND]
        return out


def _cell_z(rate, exact, n):
    p = min(max(float(exact), 0.0), 1.0)
    var = p * (1.0 - p)
    if var < 1e-15:
        return 0.0 if abs(rate - p) <= 1e-9 else float("inf")
    return float((rate - p) / np.sqrt(var / n))


def _report(counts, exact_success, cfg, cell_z=None):
    rate = np.trace(counts) / cfg.trials
    return SimReport(
        empirical_confusion=counts,
        success_rate=float(rate),
        stderr=float(np.sqrt(rate * (1 - rate) / cfg.trials)),
        exact_success=float(exact_success),
        z_score=_cell_z(rate, exact_success, cfg.trials),
        trials=cfg.trials,
        seed=cfg.seed,
        cell_z=cell_z,
    )


def sample_confusion(confusion, cfg):
    """Sample an exact confusion (row i: the decision probabilities of
    prepared state i); deterministic in the seed. The report carries each
    cell's z against its exact row."""
    cfg.validate(len(confusion))
    priors = np.asarray(cfg.priors, dtype=float)
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    prepared = rng.multinomial(cfg.trials, priors)
    counts = np.array([rng.multinomial(n, row / row.sum()) for n, row in zip(prepared, confusion)])
    rates = counts / np.maximum(prepared, 1)[:, None]
    cell_z = np.array([[_cell_z(r, p, n) if n else 0.0 for r, p in zip(rate_row, row)]
                       for n, rate_row, row in zip(prepared, rates, confusion)])
    return _report(counts, priors @ np.diag(confusion), cfg, cell_z)


def run_monte_carlo(tree, mes, cfg):
    """Sample the checked tree's exact decision distribution; deterministic in the seed."""
    return sample_confusion(evaluate_exact(tree, mes).confusion, cfg)


def _bob_bras(work):
    """Bob's bras without his phases conj(wx): row j of bras[0] is
    conj(f_rev[:, j]) and row j of bras[1] is conj(U_1 f_rev[:, j]). The DFT
    f = conj(_fourier(d)) is symmetric with conj(f_rev) = f, so these are f
    and f U_1^dag, which is f with column a scaled by conj(U_1[a, a]) since
    U_1 is diagonal in the frame."""
    f = np.conj(_fourier(work.d))
    return np.stack((f, f * np.conj(np.diag(work.unitaries[1]))))


def _outcome_probabilities(us, bras, prepared, wx, j):
    """Bob's probabilities (p0, p1) of outcomes 0 and 1 on each trial, from
    the prepared states, the phases wx = exp(2 pi i x) as a (t, d) block and
    Alice's outcomes j.

    Alice's outcome j is a_j = wx * f[:, j] (* elementwise) and leaves Bob
    U_p conj(a_j); his outcomes 0 and 1 project it onto conj(wx) * f_rev[:, j]
    and conj(wx) * (U_1 f_rev)[:, j]. One matrix product per prepared state.
    """
    rows = bras[:, j]  # (2, t, d); rows[0] is f[:, j] for each trial
    amp = np.conj(wx * rows[0])
    for p, u in enumerate(us):
        sel = prepared == p
        amp[sel] = amp[sel] @ u.T
    amp *= wx  # Bob's phases folded in
    return np.abs(np.einsum("otk,tk->ot", rows, amp)) ** 2


def run_randomized_oneway(mes, cfg):
    """Monte Carlo of the dephasing-randomized one-way protocol.

    Every trial draws fresh dephasing angles and Alice's outcome, so the
    empirical success tracks the analytic average
    1 - p_2 <psi_2|(Pi0 + Pi1)|psi_2>. Trial t reads uniforms
    t(d+3) .. t(d+3)+d+2 of the Philox(key=seed) stream: the prepared state,
    the d angles, Alice's outcome j = min(floor(u d), d - 1), each of
    probability 1/d for every prepared state, then the guess, the first
    outcome whose running sum of (p0, p1, p2) for that j reaches the last
    uniform times the total. O(d^2) per trial.
    """
    work = standardize_triple(mes)
    cfg.validate(3)
    priors = randomized_priors(cfg.priors)
    d = work.d
    bras = _bob_bras(work)
    cum = np.cumsum(priors)
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    chunk = max(1, CHUNK_ELEMENTS // d)
    counts = np.zeros(9, dtype=np.int64)
    for start in range(0, cfg.trials, chunk):
        u = rng.random((min(chunk, cfg.trials - start), d + 3))
        prepared = np.minimum(np.searchsorted(cum, u[:, 0], side="right"), 2)
        wx = np.exp(2j * np.pi * u[:, 1:-2])
        j = np.minimum((u[:, -2] * d).astype(np.intp), d - 1)
        p0, p1 = _outcome_probabilities(work.unitaries, bras, prepared, wx, j)
        # the first outcome whose running sum p0, p0 + p1, total reaches
        # r = uniform * total; the sums never decrease, so that is the count
        # of the first two that r exceeds
        total = p0 + p1 + np.maximum(1.0 - p0 - p1, 0.0)
        r = u[:, -1] * total
        guess = (r > p0).astype(np.int64) + (r > p0 + p1)
        counts += np.bincount(3 * prepared + guess, minlength=9)
    exact = 1.0 - randomized_error_exact(work, priors)
    return _report(counts.reshape(3, 3), exact, cfg)
