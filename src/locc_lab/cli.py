"""Command-line interface.

Subcommands: family build|check, ppt construct|verify, oneway
certify|prop1|randomized, twoway run, lattice sweep, simulate. Reports print
as plain tables; --json / --csv write machine-readable files stamped with a
run manifest, and identical seeds reproduce those files byte for byte. Each
command takes only the flags it reads; any other is a usage error.

Exit codes: 0 = pass, 1 = an analytic check failed, 2 = usage error.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .errors import LoccLabError
from .measurements import check_ppt, discrimination_matrix, ppt_discriminator, pt_floor, validate_povm
from .oneway import (
    ONE_WAY_IMPOSSIBLE,
    SCALAR_TOL,
    certify_impossible,
    check_isometry_witness,
    randomized_error_bound,
    randomized_error_exact,
    standardize_triple,
)
from .protocols import (
    all_lattice_triples,
    build_lattice_triple_protocol,
    build_twoway_even,
    build_twoway_mod3,
    evaluate_exact,
    is_one_way,
)
from .simulate import _MC_Z_BOUND, SimConfig, compare_exact_vs_mc, run_monte_carlo, run_randomized_oneway
from .states import (
    MaxEntSet,
    build_family,
    check_orthogonal_mes,
    even_spec,
    k_spec,
    lattice_triple_set,
    mod3_spec,
)

DEFAULT_DECISION_TOL = 1e-9


def _decision_tol(args):
    """--tol, else LOCC_LAB_TOL, else the default; a NaN, infinite or
    negative tolerance would silently fail or pass every check."""
    source, tol = "--tol", args.tol
    if tol is None:
        source, env = "LOCC_LAB_TOL", os.environ.get("LOCC_LAB_TOL")
        tol = float(env) if env else DEFAULT_DECISION_TOL
    if not (np.isfinite(tol) and tol >= 0):
        raise LoccLabError(f"{source} must be a finite nonnegative number, got {tol}")
    return tol


def _parse_indices(text):
    out = []
    for part in text.split(";"):
        out.append(tuple(int(x) for x in part.split(",")))
    return tuple(out)


def _turn(frac, flag):
    """exp(2 pi i frac), or None when the flag was not given."""
    if frac is not None and not np.isfinite(frac):
        raise LoccLabError(f"{flag} must be a finite number, got {frac}")
    return None if frac is None else np.exp(2j * np.pi * frac)


# the family flags each family has no use for
_UNREAD_FLAGS = {"even": ("r", "indices"), "mod3": ("r", "indices"), "k": ("d", "omega_frac", "gamma_frac")}


def _spec_from_args(args):
    """The chosen family's spec; a family flag it does not read is a usage error."""
    flags = _UNREAD_FLAGS[args.family]
    unread = [f"--{flag.replace('_', '-')}" for flag in flags if getattr(args, flag) is not None]
    if unread:
        raise LoccLabError(f"the {args.family} family does not read {', '.join(unread)}")
    if args.family == "k":
        indices = _parse_indices(args.indices) if args.indices else None
        k = args.k if args.k is not None else (len(indices) if indices else 4)
        return k_spec(k=k, r=1 if args.r is None else args.r, indices=indices)
    if args.d is None:
        raise LoccLabError(f"--d is required for the {args.family} family")
    omega = _turn(args.omega_frac, "--omega-frac")
    gamma = _turn(args.gamma_frac, "--gamma-frac")
    spec = (even_spec if args.family == "even" else mod3_spec)(args.d, omega=omega, gamma=gamma)
    if args.k is not None and args.k != spec.k:
        raise LoccLabError(f"--k {args.k} does not match the {spec.k}-state family")
    return spec


def _build_set(args):
    spec = _spec_from_args(args)
    return build_family(spec, allow_degenerate=args.allow_degenerate)


def _add_family_args(p):
    p.add_argument("--family", choices=("even", "mod3", "k"), required=True,
                   help="which built-in family to construct")
    p.add_argument("--d", type=int, default=None, help="dimension per party")
    p.add_argument("--k", type=int, default=None, help="state count (k family)")
    p.add_argument("--r", type=int, default=None, help="block multiplicity (k family, default 1)")
    p.add_argument("--omega-frac", type=float, default=None,
                   help="omega as a fraction of a full turn")
    p.add_argument("--gamma-frac", type=float, default=None,
                   help="gamma as a fraction of a full turn")
    p.add_argument("--indices", type=str, default=None,
                   help="base Pauli labels, e.g. '0,0;1,1;2,2;3,3'")
    p.add_argument("--allow-degenerate", action="store_true",
                   help="build even with degenerate (non-generic) phases")


def _add_output_args(p, csv=False, tol=True):
    p.add_argument("--json", type=str, default=None, help="write a JSON report here")
    if csv:
        p.add_argument("--csv", type=str, default=None, help="write confusion cells as CSV here")
    if tol:
        p.add_argument("--tol", type=float, default=None,
                       help=f"decision tolerance (default {DEFAULT_DECISION_TOL}, env LOCC_LAB_TOL)")


def _add_mc_args(p, trials, help_text="Monte Carlo trials"):
    p.add_argument("--trials", type=int, default=trials, help=help_text)
    p.add_argument("--seed", type=int, default=0, help="Monte Carlo seed")


def _manifest(args, outputs, spec):
    options = {}
    for key, value in sorted(vars(args).items()):
        if key in ("func", "command", "action"):
            continue
        if isinstance(value, float) and np.isnan(value):
            value = None
        options[key] = value
    return {
        "command": f"{args.command} {args.action}".strip(),
        "spec": None if spec is None else spec.to_json(),
        "options": options,
        "outputs": outputs,
        "tool_version": __version__,
    }


def _emit(args, payload, spec):
    outputs = [p for p in (args.json, getattr(args, "csv", None)) if p]
    payload = {"manifest": _manifest(args, outputs, spec), **payload}
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return payload


def _write_csv(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _matrix_lines(m, fmt="{:10.6f}"):
    return ["  " + " ".join(fmt.format(v) for v in row) for row in np.atleast_2d(m)]


def _confusion_csv(confusion):
    lines = ["prepared,decided,probability"]
    for i, row in enumerate(np.atleast_2d(confusion)):
        for j, v in enumerate(row):
            lines.append(f"{i},{j},{v}")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------------ commands


def cmd_family(args):
    mes = _build_set(args)
    tol = _decision_tol(args)
    report = check_orthogonal_mes(mes, tol=tol)
    payload = {
        "family": mes.spec.to_json(),
        "label": mes.label,
        "unitarity_residuals": [float(v) for v in report["unitarity_residuals"]],
        "pairwise_trace_residuals": {
            f"{i},{j}": float(v) for (i, j), v in report["pairwise_trace_residuals"].items()
        },
        "reduced_state_residuals": [float(v) for v in report["reduced_state_residuals"]],
        "genericity": {k: bool(v) for k, v in mes.spec.genericity().items()},
        "pass": bool(report["pass"]),
    }
    _emit(args, payload, mes.spec)
    print(f"{mes.label}: {mes.k} states in dimension {mes.d}")
    print(f"  max unitarity residual      {max(payload['unitarity_residuals']):.3e}")
    worst_pair = max(payload["pairwise_trace_residuals"].values(), default=0.0)
    print(f"  max pairwise trace residual {worst_pair:.3e}")
    print(f"  max reduced-state residual  {max(payload['reduced_state_residuals']):.3e}")
    print(f"  orthogonal maximally entangled set: {'PASS' if payload['pass'] else 'FAIL'}")
    if args.action == "check":
        return 0 if payload["pass"] else 1
    return 0


def cmd_ppt(args):
    mes = _build_set(args)
    tol = _decision_tol(args)
    povm = ppt_discriminator(mes, force=args.force)
    ppt = check_ppt(povm, tol=tol)
    dm = discrimination_matrix(mes, povm)
    dev = float(np.abs(dm - np.eye(mes.k)).max())
    floor = pt_floor(mes.k, mes.d)
    povm_ok = validate_povm(povm, tol=tol)["pass"]
    ok = bool(ppt.pass_ and dev <= tol and povm_ok)
    payload = {
        "family": mes.spec.to_json(),
        "ppt": ppt.to_json(),
        "floor": floor,
        "discrimination_matrix": dm.tolist(),
        "max_identity_deviation": dev,
        "povm_valid": bool(povm_ok),
        "pass": ok,
    }
    _emit(args, payload, mes.spec)
    if args.csv:
        _write_csv(args.csv, _confusion_csv(dm))
    print(f"canonical discriminator for {mes.label}")
    print(f"  eigenvalue floor (analytic)  {floor:.6f}")
    print(f"  min PT eigenvalue            {min(ppt.min_pt_eigenvalues):.6e}")
    print(f"  PT blocks                    {ppt.blocks} ({ppt.distinct_blocks} distinct, largest {ppt.largest_block})")
    print(f"  margin above floor - tol     {ppt.margin:.6e}")
    print(f"  discrimination matrix (rows = prepared):")
    for line in _matrix_lines(dm):
        print(line)
    print(f"  PPT + exact discrimination: {'PASS' if ok else 'FAIL'}")
    return 0 if (ok or args.action == "construct") else 1


def cmd_oneway_certify(args):
    mes = _build_set(args)
    cert = certify_impossible(mes)
    ok = True
    if args.expect_impossible:
        ok = cert.conclusion == ONE_WAY_IMPOSSIBLE
    payload = {"certificate": cert.to_json(), "pass": bool(ok)}
    _emit(args, payload, mes.spec)
    print(f"one-way certificate for {mes.label}")
    print(f"  null-space dimension   {cert.nullspace_dim}")
    print(f"  forced pair            {'none' if cert.forced_pair is None else cert.forced_pair}")
    print(f"  scalar deviation       {cert.residuals['max_scalar_deviation']:.3e} (forced within {SCALAR_TOL:g})")
    print(f"  rank cut kept/dropped  {cert.residuals['rank_cut_kept']:.3e} / {cert.residuals['rank_cut_dropped']:.3e}")
    if cert.reduction_holds is not None:
        print(f"  reduction holds        {cert.reduction_holds}")
    print(f"  conclusion             {cert.conclusion}")
    print("  note: certifies these phase values numerically, not the generic statement")
    return 0 if ok else 1


def cmd_oneway_prop1(args):
    mes = _build_set(args)
    tol = _decision_tol(args)
    rep = check_isometry_witness(mes, np.eye(mes.d), tol=tol)
    payload = {
        "witness": {
            "diag_max": {f"{i},{j}": float(v) for (i, j), v in rep["diag_max"].items()},
            "worst": float(rep["worst"]),
            "pass": bool(rep["pass"]),
        }
    }
    _emit(args, payload, mes.spec)
    print(f"identity-isometry witness for {mes.label}")
    print(f"  worst diagonal magnitude {rep['worst']:.3e}")
    print(f"  witness certifies one-way protocol: {'PASS' if rep['pass'] else 'FAIL'}")
    return 0 if rep["pass"] else 1


def cmd_oneway_randomized(args):
    mes = _build_set(args)
    priors = tuple(float(x) for x in args.priors.split(",")) if args.priors else (1 / mes.k,) * mes.k
    if len(priors) != mes.k:
        raise LoccLabError(f"--priors needs {mes.k} values, one per state, got {len(priors)}")
    order = tuple(int(x) for x in args.order.split(",")) if args.order else tuple(
        int(i) for i in np.argsort(-np.asarray(priors), kind="stable")
    )
    if sorted(order) != list(range(mes.k)):
        raise LoccLabError(f"--order must be a permutation of {','.join(map(str, range(mes.k)))}")
    mes = MaxEntSet(d=mes.d, unitaries=tuple(mes.unitaries[i] for i in order), spec=mes.spec, label=mes.label)
    priors = tuple(priors[i] for i in order)
    # both callees take an in-frame set as it is, so the frame is set up once
    work = standardize_triple(mes)
    err = randomized_error_exact(work, priors)
    bound = randomized_error_bound(mes.d)
    tol = _decision_tol(args)
    ok = err <= bound + tol
    mc = None
    if args.trials:
        mc = run_randomized_oneway(work, SimConfig(seed=args.seed, trials=args.trials, priors=priors))
        ok = ok and abs(mc.z_score) <= _MC_Z_BOUND
    payload = {
        "order": list(order),
        "priors": list(priors),
        "exact_error": float(err),
        "bound": float(bound),
        "mc": mc.to_json() if mc else None,
        "pass": bool(ok),
    }
    _emit(args, payload, mes.spec)
    print(f"randomized one-way protocol on {mes.label}")
    print(f"  exact error    {err:.8f}")
    print(f"  bound 2/(3d)   {bound:.8f}")
    if mc:
        print(f"  MC success     {mc.success_rate:.6f} (exact {mc.exact_success:.6f}, z = {mc.z_score:+.2f})")
    print(f"  within bound: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _twoway_tree(spec):
    if spec.kind == "even_d":
        return build_twoway_even(spec)
    if spec.kind == "mod3":
        return build_twoway_mod3(spec)
    raise LoccLabError("two-way constructions exist for the even and mod3 families")


def cmd_twoway(args):
    mes = _build_set(args)
    tree = _twoway_tree(mes.spec)
    tol = _decision_tol(args)
    ev = evaluate_exact(tree, mes)
    dev = float(np.abs(ev.confusion - np.eye(mes.k)).max())
    ok = dev <= tol
    mc = None
    if args.trials:
        mc = run_monte_carlo(tree, mes, SimConfig(seed=args.seed, trials=args.trials, priors=(1 / 3,) * 3))
        ok = ok and abs(mc.z_score) <= _MC_Z_BOUND
    payload = {
        "label": tree.label,
        "round_count": tree.round_count,
        "one_way": bool(is_one_way(tree)),
        "confusion": ev.confusion.tolist(),
        "success": float(ev.success),
        "max_identity_deviation": dev,
        "mc": mc.to_json() if mc else None,
        "pass": bool(ok),
    }
    _emit(args, payload, mes.spec)
    if args.csv:
        _write_csv(args.csv, _confusion_csv(ev.confusion))
    print(f"{tree.label}: rounds = {tree.round_count}, one-way = {payload['one_way']}")
    print("  exact confusion (rows = prepared):")
    for line in _matrix_lines(ev.confusion):
        print(line)
    print(f"  success {ev.success:.9f}")
    if mc:
        print(f"  MC success {mc.success_rate:.6f} (z = {mc.z_score:+.2f})")
    print(f"  exact discrimination: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_lattice(args):
    tol = _decision_tol(args)
    if args.limit < 0:
        raise LoccLabError(f"--limit must be nonnegative, got {args.limit}")
    triples = all_lattice_triples()
    if args.limit:
        triples = triples[: args.limit]
    failures = []
    worst = 0.0
    for triple in triples:
        tree = build_lattice_triple_protocol(triple)
        ev = evaluate_exact(tree, lattice_triple_set(triple))
        dev = float(np.abs(ev.confusion - np.eye(3)).max())
        worst = max(worst, dev)
        one_way = is_one_way(tree)
        if dev > tol or not one_way:
            failures.append({"triple": [list(t) for t in triple], "deviation": dev, "one_way": one_way})
    payload = {
        "count": len(triples),
        "worst_deviation": worst,
        "failures": failures,
        "pass": not failures,
    }
    _emit(args, payload, None)
    print(f"lattice sweep: {len(triples)} triples, worst deviation {worst:.3e}")
    print(f"  all one-way trees exact: {'PASS' if not failures else 'FAIL'}")
    return 0 if not failures else 1


def cmd_simulate(args):
    mes = _build_set(args)
    priors = (1 / 3,) * 3
    cfg = SimConfig(seed=args.seed, trials=args.trials, priors=priors)
    if args.protocol == "randomized":
        rep = run_randomized_oneway(mes, cfg)
        comparison = {"max_abs_z": abs(rep.z_score), "flags": []}
        if abs(rep.z_score) > _MC_Z_BOUND:
            comparison["flags"].append(["success", rep.z_score])
    else:
        tree = _twoway_tree(mes.spec)
        out = compare_exact_vs_mc(tree, mes, cfg)
        rep = out["report"]
        comparison = {
            "max_abs_z": float(out["max_abs_z"]),
            "flags": [[f"{i},{j}", z] for (i, j, z) in out["flags"]],
        }
    ok = not comparison["flags"]
    payload = {
        "protocol": args.protocol,
        "report": rep.to_json(),
        "comparison": comparison,
        "pass": bool(ok),
    }
    _emit(args, payload, mes.spec)
    if args.csv:
        _write_csv(args.csv, rep.to_csv())
    print(f"simulate {args.protocol} on {mes.label}: {args.trials} trials, seed {args.seed}")
    print(f"  empirical success {rep.success_rate:.6f}")
    print(f"  exact success     {rep.exact_success:.6f}")
    print(f"  max |z|           {comparison['max_abs_z']:.2f}")
    print(f"  MC consistent with exact: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


# ------------------------------------------------------------------- parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="locc-lab",
        description="Local discrimination of maximally entangled states: "
        "families, PPT discriminators, one-way certificates, LOCC protocols.",
    )
    parser.add_argument("--version", action="version", version=f"locc-lab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    family = sub.add_parser("family", help="build or check a state family")
    family.add_argument("action", choices=("build", "check"))
    _add_family_args(family)
    _add_output_args(family)
    family.set_defaults(func=cmd_family)

    ppt = sub.add_parser("ppt", help="construct or verify the PPT discriminator")
    ppt.add_argument("action", choices=("construct", "verify"))
    _add_family_args(ppt)
    _add_output_args(ppt, csv=True)
    ppt.add_argument("--force", action="store_true",
                     help="build even when the state count exceeds d/2 + 1")
    ppt.set_defaults(func=cmd_ppt)

    oneway = sub.add_parser("oneway", help="one-way analysis and protocols")
    actions = oneway.add_subparsers(dest="action", required=True)
    certify = actions.add_parser("certify", help="certify one-way impossibility")
    _add_family_args(certify)
    _add_output_args(certify, tol=False)
    certify.add_argument("--expect-impossible", action="store_true",
                         help="exit 1 unless the certificate concludes impossibility")
    certify.set_defaults(func=cmd_oneway_certify)
    prop1 = actions.add_parser("prop1", help="test the identity-isometry witness")
    _add_family_args(prop1)
    _add_output_args(prop1)
    prop1.set_defaults(func=cmd_oneway_prop1)
    randomized = actions.add_parser("randomized", help="randomized one-way protocol against 2/(3d)")
    _add_family_args(randomized)
    _add_output_args(randomized)
    randomized.add_argument("--priors", type=str, default=None,
                            help="comma-separated prior probabilities")
    randomized.add_argument("--order", type=str, default=None,
                            help="state order as a permutation of 0,1,2 (default: by priors)")
    _add_mc_args(randomized, 0)
    randomized.set_defaults(func=cmd_oneway_randomized)

    twoway = sub.add_parser("twoway", help="run a two-way protocol")
    twoway.add_argument("action", choices=("run",))
    _add_family_args(twoway)
    _add_output_args(twoway, csv=True)
    _add_mc_args(twoway, 0, "additional Monte Carlo trials")
    twoway.set_defaults(func=cmd_twoway)

    lattice = sub.add_parser("lattice", help="sweep lattice-state triples")
    lattice.add_argument("action", choices=("sweep",))
    lattice.add_argument("--limit", type=int, default=0, help="only the first N triples")
    _add_output_args(lattice)
    lattice.set_defaults(func=cmd_lattice)

    simulate = sub.add_parser("simulate", help="Monte Carlo a protocol against exact values")
    simulate.add_argument("--protocol", choices=("twoway", "randomized"), default="twoway")
    _add_family_args(simulate)
    _add_output_args(simulate, csv=True, tol=False)
    _add_mc_args(simulate, 10_000, None)
    simulate.set_defaults(func=cmd_simulate, action="")

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (LoccLabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: not enough memory for this size: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
