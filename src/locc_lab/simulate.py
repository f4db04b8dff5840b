"""Seeded Monte Carlo execution of protocol trees.

A tree's outcome, once the prepared state is fixed, follows exactly the
decision probabilities that evaluate_exact computes, so run_monte_carlo
walks the tree, checked when it was made, once, exactly, and
sample_confusion samples that walk: one Philox stream keyed by the seed
draws the prepared-state counts, then one multinomial per prepared state
over its exact row. A caller that has walked the tree already samples its
confusion directly. A sampled report carries each cell's z-score against
its exact row besides the success rate's. The dephasing-randomized one-way
protocol is sampled the same way: once the prepared state is fixed, its
decision follows the dephasing-averaged probabilities of
oneway.randomized_confusion, computed once, so a trial costs O(1) whatever
d is. Both are reproducible and independent of execution order.
"""

from dataclasses import dataclass

import numpy as np

from .errors import SpecInvalid
from .measurements import _check_priors
from .oneway import randomized_confusion, randomized_priors
from .protocols import evaluate_exact

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
    cell_z: np.ndarray  # per-cell z against the exact rows sampled

    @property
    def max_abs_z(self):
        """The largest abs(z) over the success rate and the cells."""
        return max([abs(self.z_score), *np.abs(self.cell_z).ravel().tolist()])

    def to_json(self):
        return {
            "empirical_confusion": self.empirical_confusion.tolist(),
            "success_rate": self.success_rate,
            "stderr": self.stderr,
            "exact_success": self.exact_success,
            "z_score": self.z_score,
            "trials": self.trials,
            "seed": self.seed,
            "cell_z": self.cell_z.tolist(),
            # the cells whose abs(z) exceeds the bound, as ["i,j", z]
            "flags": [[f"{i},{j}", float(z)] for (i, j), z in np.ndenumerate(self.cell_z) if abs(z) > _MC_Z_BOUND],
        }


def _cell_z(rate, exact, n):
    p = min(max(float(exact), 0.0), 1.0)
    var = p * (1.0 - p)
    if var < 1e-15:
        return 0.0 if abs(rate - p) <= 1e-9 else float("inf")
    return float((rate - p) / np.sqrt(var / n))


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
    exact_success = float(priors @ np.diag(confusion))
    rate = np.trace(counts) / cfg.trials
    return SimReport(
        empirical_confusion=counts,
        success_rate=float(rate),
        stderr=float(np.sqrt(rate * (1 - rate) / cfg.trials)),
        exact_success=exact_success,
        z_score=_cell_z(rate, exact_success, cfg.trials),
        trials=cfg.trials,
        seed=cfg.seed,
        cell_z=cell_z,
    )


def run_monte_carlo(tree, mes, cfg):
    """Sample the checked tree's exact decision distribution; deterministic in the seed."""
    return sample_confusion(evaluate_exact(tree, mes).confusion, cfg)


def run_randomized_oneway(mes, cfg):
    """Monte Carlo of the dephasing-randomized one-way protocol: once the
    prepared state is fixed, its decision follows exactly the dephasing
    averages that randomized_confusion computes, so that confusion is
    sampled; deterministic in the seed, O(1) per trial."""
    cfg.validate(3)
    randomized_priors(mes, cfg.priors)
    return sample_confusion(randomized_confusion(mes), cfg)
