"""Seeded Monte Carlo execution of protocol trees.

A tree's outcome, once the prepared state is fixed, follows exactly the
decision probabilities that evaluate_exact computes, so run_monte_carlo
walks the tree once, exactly, and samples from that walk: one Philox stream
keyed by the seed draws the prepared-state counts, then one multinomial per
prepared state over its row of the exact confusion matrix. The randomized
one-way protocol draws fresh dephasing angles on every trial, each trial on
its own Philox stream keyed by (seed, trial index). Both are reproducible
and independent of execution order.
"""

from dataclasses import dataclass

import numpy as np

from .errors import SpecInvalid
from .measurements import _check_priors
from .numerics import frob, identity
from .oneway import fourier_basis, randomized_error_exact, standardize_triple
from .protocols import evaluate_exact


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

    def to_json(self):
        return {
            "empirical_confusion": self.empirical_confusion.tolist(),
            "success_rate": self.success_rate,
            "stderr": self.stderr,
            "exact_success": self.exact_success,
            "z_score": self.z_score,
            "trials": self.trials,
            "seed": self.seed,
        }

    def to_csv(self):
        lines = ["prepared,decided,count,rate"]
        row_totals = self.empirical_confusion.sum(axis=1)
        for i, row in enumerate(self.empirical_confusion):
            for j, c in enumerate(row):
                rate = c / row_totals[i] if row_totals[i] else 0.0
                lines.append(f"{i},{j},{int(c)},{rate}")
        return "\n".join(lines) + "\n"


def _trial_rng(seed, trial):
    return np.random.Generator(np.random.Philox(key=np.array([seed, trial], dtype=np.uint64)))


def _draw(rng, weights):
    total = sum(weights)
    r = rng.random() * total
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if r <= acc:
            return i
    return len(weights) - 1


def _cell_z(rate, exact, n):
    p = min(max(float(exact), 0.0), 1.0)
    var = p * (1.0 - p)
    if var < 1e-15:
        return 0.0 if abs(rate - p) <= 1e-9 else float("inf")
    return float((rate - p) / np.sqrt(var / n))


def _report(counts, priors, exact_success, trials, seed):
    k = counts.shape[0]
    hits = sum(counts[i, i] for i in range(k))
    rate = hits / trials
    stderr = float(np.sqrt(max(rate * (1 - rate), 1e-300) / trials))
    z = _cell_z(rate, exact_success, trials)
    return SimReport(
        empirical_confusion=counts,
        success_rate=float(rate),
        stderr=stderr,
        exact_success=float(exact_success),
        z_score=float(z),
        trials=trials,
        seed=seed,
    )


def _monte_carlo(tree, mes, cfg):
    """The report of run_monte_carlo and the exact confusion it sampled."""
    cfg.validate(mes.k)
    priors = np.asarray(cfg.priors, dtype=float)
    exact = evaluate_exact(tree, mes, priors)
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    prepared = rng.multinomial(cfg.trials, priors)
    counts = np.array([rng.multinomial(n, row / row.sum()) for n, row in zip(prepared, exact.confusion)])
    return _report(counts, priors, exact.success, cfg.trials, cfg.seed), exact.confusion


def run_monte_carlo(tree, mes, cfg):
    """Sample the tree's exact decision distribution; deterministic in the seed."""
    return _monte_carlo(tree, mes, cfg)[0]


def run_randomized_oneway(mes, cfg):
    """Monte Carlo of the dephasing-randomized one-way protocol.

    Every trial draws fresh dephasing angles, so the empirical success tracks
    the analytic average 1 - p_2 <psi_2|(Pi0 + Pi1)|psi_2>.
    """
    cfg.validate(3)
    priors = np.asarray(cfg.priors, dtype=float)
    if not (priors[0] >= priors[1] >= priors[2]):
        raise SpecInvalid("priors must be sorted descending for the randomized protocol")
    work = mes
    u1 = mes.unitaries[1]
    if (
        frob(u1 - np.diag(np.diag(u1))) > 1e-9
        or frob(mes.unitaries[0] - identity(mes.d)) > 1e-9
    ):
        work = standardize_triple(mes)
    d = work.d
    f = fourier_basis(d)
    f_rev = f[:, [(d - j) % d for j in range(d)]]
    u1f_rev = work.unitaries[1] @ f_rev
    us = work.unitaries
    cum = np.cumsum(priors)
    counts = np.zeros((3, 3), dtype=np.int64)
    for t in range(cfg.trials):
        rng = _trial_rng(cfg.seed, t)
        prepared = min(int(np.searchsorted(cum, rng.random(), side="right")), 2)
        x = rng.random(d)
        wx = np.exp(2j * np.pi * x)
        amp = us[prepared] @ np.conj(wx[:, None] * f)  # column j: U_p conj(a_j)
        b = np.conj(wx)[:, None] * f_rev
        b1 = np.conj(wx)[:, None] * u1f_rev
        q0 = float(np.sum(np.abs(np.einsum("kj,kj->j", np.conj(b), amp)) ** 2) / d)
        q1 = float(np.sum(np.abs(np.einsum("kj,kj->j", np.conj(b1), amp)) ** 2) / d)
        weights = (q0, q1, max(1.0 - q0 - q1, 0.0))
        guess = _draw(rng, weights)
        counts[prepared, guess] += 1
    exact = 1.0 - randomized_error_exact(mes, priors)
    return _report(counts, priors, exact, cfg.trials, cfg.seed)


def compare_exact_vs_mc(tree, mes, cfg, flag_at=4.0):
    """Per-cell z-scores of the empirical confusion against exact values."""
    report, exact = _monte_carlo(tree, mes, cfg)
    counts = report.empirical_confusion
    row_totals = counts.sum(axis=1)
    cells = []
    flags = []
    for i in range(mes.k):
        n = row_totals[i]
        for j in range(mes.k):
            p = exact[i, j]
            rate = counts[i, j] / n if n else 0.0
            z = 0.0 if n == 0 else _cell_z(rate, p, n)
            cells.append({"prepared": i, "decided": j, "empirical": float(rate), "exact": float(p), "z": z})
            if abs(z) > flag_at:
                flags.append((i, j, float(z)))
    return {
        "cells": cells,
        "flags": flags,
        "max_abs_z": max(abs(c["z"]) for c in cells),
        "report": report,
    }
