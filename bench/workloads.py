"""Seeded inputs and verdict-checked operations of the three workloads.

``draw_inputs`` turns a seed into plain data: phase fractions, state orders
and Monte Carlo (MC) seeds. The operations build every program object from
that data through locc_lab's public functions, call the program only through
``tracer.call`` and raise ``VerdictError`` when a verdict is wrong.

- dense-ladder: few states in large dimension. The O(d^6) dense eigensolves
  and SVDs of ``measurements`` and ``oneway`` do nearly all of the work.
- lattice-sweep: the same calls on all 560 lattice triples at d=4, where
  per-call Python overhead dominates, plus the ``protocols`` exact walk over
  many small trees.
- protocol-sim: adaptive two-way trees and MC. The Python tree walk and
  per-trial sampling dominate; the dense PT and certificate code never runs.
"""

import contextlib
import functools
import hashlib
import io
import json
from pathlib import Path

import numpy as np

from locc_lab import cli, measurements, oneway, protocols, simulate, states

TOL = 1e-9
# Phases are drawn at least this far from every degeneracy locus, far outside
# the program's own GENERICITY_MARGIN (1e-6).
DRAW_MARGIN = 0.1
# |z| <= 6 keeps false MC failures negligible over many runs; 4 would fire
# about once per 16k operations.
MAX_Z = 6.0
UNIFORM3 = (1 / 3, 1 / 3, 1 / 3)
K3_BASE = ((0,), (1,), (3,))

DENSE_LADDER = (
    ("even", "d", (4, 8, 12, 16, 20, 24)),
    ("mod3", "d", (5, 8, 11, 14, 17, 20, 23)),
    ("k4", "r", (1, 2, 3)),
    ("k3", "r", (1, 2)),
)
TWOWAY = (("even", 4), ("even", 8), ("even", 16), ("even", 24), ("even", 32), ("mod3", 5))
MC_TREE = (("even", 4), ("even", 8), ("mod3", 5))
MC_TREE_TRIALS = 500
MC_RANDOMIZED_DIMS = (4, 16, 32)
MC_RANDOMIZED_TRIALS = 300
# one operation per run shows the d^4 memory wall of randomized_error_exact
MC_RANDOMIZED_WALL_D = 64
MC_RANDOMIZED_WALL_TRIALS = 20
CLI_SIM_TRIALS = 2000


class VerdictError(Exception):
    """An operation completed but returned a wrong verdict."""


def check(ok, message):
    if not ok:
        raise VerdictError(message)


# ------------------------------------------------------------------ inputs


def _turn(frac):
    return np.exp(2j * np.pi * frac)


def _draw_even(rng):
    while True:
        fw, fg = (float(x) for x in rng.random(2))
        w, g = _turn(fw), _turn(fg)
        if min(abs(w.imag), abs(g.imag), abs((np.conj(w) * g).imag)) > DRAW_MARGIN:
            return {"omega_frac": fw, "gamma_frac": fg}


def _draw_mod3(rng):
    while True:
        fw, fg = (float(x) for x in rng.random(2))
        w2, g = _turn(fw) ** 2, _turn(fg)
        if min(abs(g - 1j * w2), abs(g + 1j * w2)) > DRAW_MARGIN:
            return {"omega_frac": fw, "gamma_frac": fg}


def _draw_alphas(rng, k):
    while True:
        fracs = [float(x) for x in rng.random(k)]
        a = _turn(np.array(fracs))
        chain = [(a[0] * np.conj(a[j]) * a[1] * np.conj(a[j + 1])) ** 4 for j in range(1, k - 1)]
        if all(abs(c - 1.0) > DRAW_MARGIN for c in chain):
            return {"alpha_fracs": fracs}


def _draw_family(rng, kind, size_key, size):
    fam = {"kind": kind, size_key: size}
    if kind == "even":
        fam.update(_draw_even(rng))
    elif kind == "mod3":
        fam.update(_draw_mod3(rng))
    else:
        fam.update(_draw_alphas(rng, int(kind[1])))
    if kind != "k4":
        fam["order"] = [int(i) for i in rng.permutation(3)]
    return fam


def _mc_seed(rng):
    return int(rng.integers(0, 2**31))


def draw_inputs(workload, seed):
    """All inputs of one run as plain data; the same seed gives the same data."""
    rng = np.random.default_rng(seed)
    if workload == "dense-ladder":
        return {
            "families": [
                _draw_family(rng, kind, key, size)
                for kind, key, sizes in DENSE_LADDER
                for size in sizes
            ],
        }
    if workload == "lattice-sweep":
        triples = protocols.all_lattice_triples()
        return {
            "triples": [
                [list(triples[i][j]) for j in rng.permutation(3)]
                for i in rng.permutation(len(triples))
            ],
        }
    if workload == "protocol-sim":
        twoway = [dict(_draw_family(rng, kind, "d", d), mc_seed=_mc_seed(rng)) for kind, d in TWOWAY]
        randomized = [
            dict(_draw_family(rng, "even", "d", d), mc_seed=_mc_seed(rng))
            for d in MC_RANDOMIZED_DIMS + (MC_RANDOMIZED_WALL_D,)
        ]
        cli_fam = _draw_family(rng, "mod3", "d", 5)
        return {"twoway": twoway, "randomized": randomized, "cli": dict(cli_fam, mc_seed=_mc_seed(rng))}
    raise ValueError(f"unknown workload {workload!r}")


def digest(inputs):
    """Short SHA-256 of the canonical JSON form of the inputs."""
    text = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def make_spec(fam):
    kind = fam["kind"]
    if kind == "even":
        return states.even_spec(fam["d"], omega=_turn(fam["omega_frac"]), gamma=_turn(fam["gamma_frac"]))
    if kind == "mod3":
        return states.mod3_spec(fam["d"], omega=_turn(fam["omega_frac"]), gamma=_turn(fam["gamma_frac"]))
    alphas = tuple(_turn(f) for f in fam["alpha_fracs"])
    if kind == "k4":
        return states.k_spec(k=4, r=fam["r"], alphas=alphas)
    return states.k_spec(k=3, r=fam["r"], indices=K3_BASE, alphas=alphas)


# -------------------------------------------------------------- operations
# Each operation takes (tracer, job) and returns the MC trials it ran, or 0.
# Operations of one family share its job dict, so later ones reuse the set
# and tree built by earlier ones in the same pass. An MC operation also
# leaves in its job, as ``exact``, the call name and the exact evaluation
# that call runs after its trials, so that the harness can time that part
# apart and per-trial figures measure sampling only.


def op_family_check(tr, job):
    if "triple" in job:
        mes = tr.call("states.lattice_triple_set", states.lattice_triple_set, job["triple"])
    else:
        mes = tr.call("states.build_family", states.build_family, job["spec"])
    check(mes.spec.is_generic, "family spec is not generic")
    report = tr.call("states.check_orthogonal_mes", states.check_orthogonal_mes, mes)
    check(report["pass"], "family residuals exceed tolerance")
    job["mes"] = mes
    return 0


def op_ppt_verify(tr, job):
    mes = job["mes"]
    k, d = mes.k, mes.d
    povm = tr.call("measurements.ppt_discriminator", measurements.ppt_discriminator, mes)
    tr.peak("measurements.ppt_discriminator", "result_mb", sum(e.nbytes for e in povm.elements) / 2**20)
    ppt = tr.call("measurements.check_ppt", measurements.check_ppt, povm)
    floor = (1.0 / k) * (1.0 - 2.0 * (k - 1) / d)
    check(min(ppt.min_pt_eigenvalues) >= floor - TOL, f"min PT eigenvalue below floor {floor}")
    dm = tr.call("measurements.discrimination_matrix", measurements.discrimination_matrix, mes, povm)
    check(np.abs(dm - np.eye(k)).max() <= TOL, "discrimination matrix is not the identity")
    valid = tr.call("measurements.validate_povm", measurements.validate_povm, povm)
    check(valid["pass"], "discriminator is not a valid POVM")
    return 0


def op_oneway_certify(tr, job):
    cert = tr.call("oneway.certify_impossible", oneway.certify_impossible, job["mes"])
    if job["kind"] == "k4":
        check(cert.conclusion == oneway.INCONCLUSIVE, f"k=4 certificate says {cert.conclusion}")
        check(cert.reduction_holds is True, "k=4 reduction does not hold")
    else:
        check(cert.conclusion == oneway.ONE_WAY_IMPOSSIBLE, f"certificate says {cert.conclusion}")
    return 0


def _reordered(mes, order):
    unitaries = tuple(mes.unitaries[i] for i in order)
    return states.MaxEntSet(d=mes.d, unitaries=unitaries, spec=mes.spec, label=mes.label)


def op_randomized_exact(tr, job):
    mes = _reordered(job["mes"], job["order"])
    err = tr.call("oneway.randomized_error_exact", oneway.randomized_error_exact, mes, UNIFORM3)
    check(-TOL <= err <= 2.0 / (3.0 * mes.d) + TOL, f"randomized error {err} outside [0, 2/(3d)]")
    return 0


def _check_exact(tr, tree, mes):
    ev = tr.call("protocols.evaluate_exact", protocols.evaluate_exact, tree, mes)
    tr.add("protocols.evaluate_exact", "leaf_visits", ev.transcript_count * mes.k)
    check(np.abs(ev.confusion - np.eye(mes.k)).max() <= TOL, "exact confusion is not the identity")


def op_lattice_tree(tr, job):
    tree = tr.call(
        "protocols.build_lattice_triple_protocol", protocols.build_lattice_triple_protocol, job["triple"]
    )
    _check_exact(tr, tree, job["mes"])
    check(tr.call("protocols.is_one_way", protocols.is_one_way, tree), "lattice tree is not one-way")
    return 0


def op_twoway_exact(tr, job):
    spec = job["spec"]
    mes = tr.call("states.build_family", states.build_family, spec)
    if spec.kind == "even_d":
        tree = tr.call("protocols.build_twoway_even", protocols.build_twoway_even, spec)
    else:
        tree = tr.call("protocols.build_twoway_mod3", protocols.build_twoway_mod3, spec)
    _check_exact(tr, tree, mes)
    check(not tr.call("protocols.is_one_way", protocols.is_one_way, tree), "two-way tree is one-way")
    job["mes"], job["tree"] = mes, tree
    return 0


def op_mc_tree(tr, job):
    cfg = simulate.SimConfig(seed=job["mc_seed"], trials=MC_TREE_TRIALS, priors=UNIFORM3)
    rep = tr.call("simulate.run_monte_carlo", simulate.run_monte_carlo, job["tree"], job["mes"], cfg)
    tr.trials("simulate.run_monte_carlo", cfg.trials)
    check(rep.success_rate == 1.0, f"MC success rate {rep.success_rate} on an exact tree")
    job["exact"] = ("simulate.run_monte_carlo",
                    functools.partial(protocols.evaluate_exact, job["tree"], job["mes"], UNIFORM3))
    return cfg.trials


def op_mc_randomized(tr, job):
    """Randomized one-way MC. The d=64 wall job is dominated by the exact
    evaluation, not by its few trials, so its trials are not counted."""
    mes = tr.call("states.build_family", states.build_family, job["spec"])
    mes = _reordered(mes, job["order"])
    cfg = simulate.SimConfig(seed=job["mc_seed"], trials=job["trials"], priors=UNIFORM3)
    rep = tr.call("simulate.run_randomized_oneway", simulate.run_randomized_oneway, mes, cfg)
    check(abs(rep.z_score) <= MAX_Z, f"MC z-score {rep.z_score:+.2f}")
    if job.get("wall"):
        return 0
    tr.trials("simulate.run_randomized_oneway", cfg.trials)
    job["exact"] = ("simulate.run_randomized_oneway",
                    functools.partial(oneway.randomized_error_exact, mes, UNIFORM3))
    return cfg.trials


def op_cli(tr, job):
    """Run one CLI command twice; both --json reports must be byte-identical."""
    path = Path(job["json"])
    reports = []
    for _ in range(2):
        with contextlib.redirect_stdout(io.StringIO()):
            code = tr.call("cli.main", cli.main, job["argv"] + ["--json", str(path)])
        check(code == 0, f"cli exited {code}")
        reports.append(path.read_bytes())
    check(reports[0] == reports[1], "cli reports differ between identical runs")
    tr.add("cli.main", "identical_reports", 1)
    return 0


# ------------------------------------------------------------------ passes


def _job(fam, **extra):
    job = dict(fam, **extra)
    if "kind" in fam:
        job["spec"] = make_spec(fam)
    return job


def _phase_args(fam):
    return ["--omega-frac", repr(fam["omega_frac"]), "--gamma-frac", repr(fam["gamma_frac"])]


def build_pass(workload, inputs, index):
    """The operations of pass ``index``: a list of (name, fn, job)."""
    ops = []
    if workload == "dense-ladder":
        for fam in inputs["families"]:
            job = _job(fam)
            ops += [("family-check", op_family_check, job), ("ppt-verify", op_ppt_verify, job),
                    ("oneway-certify", op_oneway_certify, job)]
            if "order" in fam:
                ops.append(("randomized-exact", op_randomized_exact, job))
    elif workload == "lattice-sweep":
        for triple in inputs["triples"]:
            job = {"triple": tuple(tuple(t) for t in triple), "order": (0, 1, 2)}
            ops += [("family-check", op_family_check, job), ("ppt-verify", op_ppt_verify, job),
                    ("randomized-exact", op_randomized_exact, job), ("lattice-tree", op_lattice_tree, job)]
    elif workload == "protocol-sim":
        jobs = {}
        for fam in inputs["twoway"]:
            job = jobs[fam["kind"], fam["d"]] = _job(fam, mc_seed=fam["mc_seed"] + index)
            ops.append(("twoway-exact", op_twoway_exact, job))
        ops += [("mc-tree", op_mc_tree, jobs[key]) for key in MC_TREE]
        for fam in inputs["randomized"][: len(MC_RANDOMIZED_DIMS)]:
            ops.append(("mc-randomized", op_mc_randomized,
                        _job(fam, mc_seed=fam["mc_seed"] + index, trials=MC_RANDOMIZED_TRIALS)))
    return ops


def build_extras(workload, inputs, tmpdir):
    """Operations run once per run after the passes, ending with the CLI step."""
    ops = []
    json_path = str(Path(tmpdir) / "report.json")
    if workload == "dense-ladder":
        fam = next(f for f in inputs["families"] if f["kind"] == "even" and f["d"] == 8)
        argv = ["ppt", "verify", "--family", "even", "--d", "8"] + _phase_args(fam)
    elif workload == "lattice-sweep":
        argv = ["lattice", "sweep"]
    else:
        wall = inputs["randomized"][-1]
        ops.append(("mc-randomized", op_mc_randomized,
                    _job(wall, trials=MC_RANDOMIZED_WALL_TRIALS, wall=True)))
        fam = inputs["cli"]
        argv = ["simulate", "--family", "mod3", "--d", "5", "--trials", str(CLI_SIM_TRIALS),
                "--seed", str(fam["mc_seed"])] + _phase_args(fam)
    ops.append(("cli-main", op_cli, {"argv": argv, "json": json_path}))
    return ops


def build_warmup(workload, inputs):
    """A cheap slice of pass 0 at the smallest sizes, run during set-up."""
    ops = build_pass(workload, inputs, 0)
    if workload == "lattice-sweep":
        return ops[:16]
    return [op for op in ops if op[2]["spec"].d <= 8]
