"""Command-line interface.

Subcommands: family build|check, ppt construct|verify, oneway
certify|prop1|randomized, twoway run, lattice sweep, simulate. Reports print
as plain tables; --json / --csv write machine-readable files stamped with a
run manifest, and identical seeds reproduce those files byte for byte.

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
    IsometryCandidate,
    certify_impossible,
    check_isometry_witness,
    randomized_error_bound,
    randomized_error_exact,
)
from .protocols import (
    all_lattice_triples,
    build_lattice_triple_protocol,
    build_twoway_even,
    build_twoway_mod3,
    evaluate_exact,
    is_one_way,
)
from .simulate import SimConfig, compare_exact_vs_mc, run_monte_carlo, run_randomized_oneway
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


def _spec_from_args(args):
    omega = _turn(args.omega_frac, "--omega-frac")
    gamma = _turn(args.gamma_frac, "--gamma-frac")
    if args.family == "even":
        if args.d is None:
            raise LoccLabError("--d is required for the even family")
        return even_spec(args.d, omega=omega, gamma=gamma)
    if args.family == "mod3":
        if args.d is None:
            raise LoccLabError("--d is required for the mod3 family")
        return mod3_spec(args.d, omega=omega, gamma=gamma)
    if args.family == "k":
        indices = _parse_indices(args.indices) if args.indices else None
        k = args.k if args.k else (len(indices) if indices else 4)
        return k_spec(k=k, r=args.r, indices=indices)
    raise LoccLabError(f"unknown family {args.family!r}")


def _build_set(args):
    spec = _spec_from_args(args)
    return build_family(spec, allow_degenerate=args.allow_degenerate)


def _add_family_args(p):
    p.add_argument("--family", choices=("even", "mod3", "k"), required=True,
                   help="which built-in family to construct")
    p.add_argument("--d", type=int, default=None, help="dimension per party")
    p.add_argument("--k", type=int, default=None, help="state count (k family)")
    p.add_argument("--r", type=int, default=1, help="block multiplicity (k family)")
    p.add_argument("--omega-frac", type=float, default=None,
                   help="omega as a fraction of a full turn")
    p.add_argument("--gamma-frac", type=float, default=None,
                   help="gamma as a fraction of a full turn")
    p.add_argument("--indices", type=str, default=None,
                   help="base Pauli labels, e.g. '0,0;1,1;2,2;3,3'")
    p.add_argument("--allow-degenerate", action="store_true",
                   help="build even with degenerate (non-generic) phases")


def _add_output_args(p):
    p.add_argument("--json", type=str, default=None, help="write a JSON report here")
    p.add_argument("--csv", type=str, default=None, help="write confusion cells as CSV here")
    p.add_argument("--tol", type=float, default=None,
                   help=f"decision tolerance (default {DEFAULT_DECISION_TOL}, env LOCC_LAB_TOL)")


def _manifest(args, outputs):
    options = {}
    for key, value in sorted(vars(args).items()):
        if key in ("func", "command", "action"):
            continue
        if isinstance(value, float) and np.isnan(value):
            value = None
        options[key] = value
    spec_doc = None
    if getattr(args, "family", None) in ("even", "mod3", "k"):
        try:
            spec_doc = _spec_from_args(args).to_json()
        except LoccLabError:
            spec_doc = None
    return {
        "command": f"{args.command} {args.action}".strip(),
        "spec": spec_doc,
        "options": options,
        "outputs": outputs,
        "tool_version": __version__,
    }


def _emit(args, payload):
    outputs = [p for p in (args.json, getattr(args, "csv", None)) if p]
    payload = {"manifest": _manifest(args, outputs), **payload}
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
    _emit(args, payload)
    print(f"{mes.label}: {mes.k} states in dimension {mes.d}")
    print(f"  max unitarity residual      {max(payload['unitarity_residuals']):.3e}")
    worst_pair = max(payload["pairwise_trace_residuals"].values())
    print(f"  max pairwise trace residual {worst_pair:.3e}")
    print(f"  max reduced-state residual  {max(payload['reduced_state_residuals']):.3e}")
    print(f"  orthogonal maximally entangled set: {'PASS' if payload['pass'] else 'FAIL'}")
    if args.action == "check":
        return 0 if payload["pass"] else 1
    return 0


def cmd_ppt(args):
    mes = _build_set(args)
    tol = _decision_tol(args)
    if args.k is not None and args.family != "k" and args.k != mes.k:
        raise LoccLabError(f"--k {args.k} does not match the {mes.k}-state family")
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
    _emit(args, payload)
    if args.csv:
        _write_csv(args.csv, _confusion_csv(dm))
    print(f"canonical discriminator for {mes.label}")
    print(f"  eigenvalue floor (analytic)  {floor:.6f}")
    print(f"  min PT eigenvalue            {min(ppt.min_pt_eigenvalues):.6e}")
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
    _emit(args, payload)
    print(f"one-way certificate for {mes.label}")
    print(f"  null-space dimension   {cert.nullspace_dim}")
    print(f"  top block size         {cert.top_block_size}")
    print(f"  top-block image dim    {cert.top_block_image_dim}")
    print(f"  forced scalar          {cert.forced_scalar}")
    if cert.reduction_holds is not None:
        print(f"  reduction holds        {cert.reduction_holds}")
    print(f"  conclusion             {cert.conclusion}")
    print("  note: certifies these phase values numerically, not the generic statement")
    return 0 if ok else 1


def cmd_oneway_prop1(args):
    mes = _build_set(args)
    tol = _decision_tol(args)
    cand = IsometryCandidate.identity(mes.d)
    rep = check_isometry_witness(mes, cand, tol=tol)
    payload = {
        "witness": {
            "diag_max": {f"{i},{j}": float(v) for (i, j), v in rep["diag_max"].items()},
            "worst": float(rep["worst"]),
            "pass": bool(rep["pass"]),
        }
    }
    _emit(args, payload)
    print(f"identity-isometry witness for {mes.label}")
    print(f"  worst diagonal magnitude {rep['worst']:.3e}")
    print(f"  witness certifies one-way protocol: {'PASS' if rep['pass'] else 'FAIL'}")
    return 0 if rep["pass"] else 1


def cmd_oneway_randomized(args):
    mes = _build_set(args)
    if mes.k != 3:
        raise LoccLabError("the randomized protocol applies to 3-state families")
    priors = tuple(float(x) for x in args.priors.split(",")) if args.priors else (1 / 3,) * 3
    order = tuple(int(x) for x in args.order.split(",")) if args.order else tuple(
        int(i) for i in np.argsort(-np.asarray(priors), kind="stable")
    )
    if sorted(order) != [0, 1, 2]:
        raise LoccLabError("--order must be a permutation of 0,1,2")
    mes = MaxEntSet(d=mes.d, unitaries=tuple(mes.unitaries[i] for i in order), spec=mes.spec, label=mes.label)
    priors = tuple(priors[i] for i in order)
    err = randomized_error_exact(mes, priors)
    bound = randomized_error_bound(mes.d)
    tol = _decision_tol(args)
    ok = err <= bound + tol
    mc = None
    if args.trials:
        mc = run_randomized_oneway(mes, SimConfig(seed=args.seed, trials=args.trials, priors=priors))
        ok = ok and abs(mc.z_score) <= 4.0
    payload = {
        "order": list(order),
        "priors": list(priors),
        "exact_error": float(err),
        "bound": float(bound),
        "mc": mc.to_json() if mc else None,
        "pass": bool(ok),
    }
    _emit(args, payload)
    print(f"randomized one-way protocol on {mes.label}")
    print(f"  exact error    {err:.8f}")
    print(f"  bound 2/(3d)   {bound:.8f}")
    if mc:
        print(f"  MC success     {mc.success_rate:.6f} (exact {mc.exact_success:.6f}, z = {mc.z_score:+.2f})")
    print(f"  within bound: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _twoway_tree(args, spec):
    if spec.kind == "even_d":
        return build_twoway_even(spec)
    if spec.kind == "mod3":
        return build_twoway_mod3(spec)
    raise LoccLabError("two-way constructions exist for the even and mod3 families")


def cmd_twoway(args):
    spec = _spec_from_args(args)
    mes = build_family(spec)
    tree = _twoway_tree(args, spec)
    tol = _decision_tol(args)
    ev = evaluate_exact(tree, mes)
    dev = float(np.abs(ev.confusion - np.eye(mes.k)).max())
    ok = dev <= tol
    mc = None
    if args.trials:
        mc = run_monte_carlo(tree, mes, SimConfig(seed=args.seed, trials=args.trials, priors=(1 / 3,) * 3))
        ok = ok and abs(mc.z_score) <= 4.0
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
    _emit(args, payload)
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
        if dev > tol or not is_one_way(tree):
            failures.append({"triple": [list(t) for t in triple], "deviation": dev})
    payload = {
        "count": len(triples),
        "worst_deviation": worst,
        "failures": failures,
        "pass": not failures,
    }
    _emit(args, payload)
    print(f"lattice sweep: {len(triples)} triples, worst deviation {worst:.3e}")
    print(f"  all one-way trees exact: {'PASS' if not failures else 'FAIL'}")
    return 0 if not failures else 1


def cmd_simulate(args):
    spec = _spec_from_args(args)
    mes = build_family(spec)
    priors = (1 / 3,) * 3
    cfg = SimConfig(seed=args.seed, trials=args.trials, priors=priors)
    if args.protocol == "randomized":
        rep = run_randomized_oneway(mes, cfg)
        comparison = {"max_abs_z": abs(rep.z_score), "flags": []}
        if abs(rep.z_score) > 4.0:
            comparison["flags"].append(["success", rep.z_score])
    else:
        tree = _twoway_tree(args, spec)
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
    _emit(args, payload)
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
    _add_output_args(ppt)
    ppt.add_argument("--force", action="store_true",
                     help="build even when the state count exceeds d/2 + 1")
    ppt.set_defaults(func=cmd_ppt)

    oneway = sub.add_parser("oneway", help="one-way analysis and protocols")
    oneway.add_argument("action", choices=("certify", "prop1", "randomized"))
    _add_family_args(oneway)
    _add_output_args(oneway)
    oneway.add_argument("--expect-impossible", action="store_true",
                        help="exit 1 unless the certificate concludes impossibility")
    oneway.add_argument("--priors", type=str, default=None,
                        help="comma-separated prior probabilities")
    oneway.add_argument("--order", type=str, default=None,
                        help="state order as a permutation of 0,1,2 (default: by priors)")
    oneway.add_argument("--trials", type=int, default=0, help="Monte Carlo trials")
    oneway.add_argument("--seed", type=int, default=0, help="Monte Carlo seed")
    oneway.set_defaults(func=lambda a: {
        "certify": cmd_oneway_certify,
        "prop1": cmd_oneway_prop1,
        "randomized": cmd_oneway_randomized,
    }[a.action](a))

    twoway = sub.add_parser("twoway", help="run a two-way protocol")
    twoway.add_argument("action", choices=("run",))
    _add_family_args(twoway)
    _add_output_args(twoway)
    twoway.add_argument("--exact", action="store_true", help="exact evaluation only (default)")
    twoway.add_argument("--trials", type=int, default=0, help="additional Monte Carlo trials")
    twoway.add_argument("--seed", type=int, default=0, help="Monte Carlo seed")
    twoway.set_defaults(func=cmd_twoway)

    lattice = sub.add_parser("lattice", help="sweep lattice-state triples")
    lattice.add_argument("action", choices=("sweep",))
    lattice.add_argument("--limit", type=int, default=0, help="only the first N triples")
    _add_output_args(lattice)
    lattice.set_defaults(func=cmd_lattice)

    simulate = sub.add_parser("simulate", help="Monte Carlo a protocol against exact values")
    simulate.add_argument("--protocol", choices=("twoway", "randomized"), default="twoway")
    _add_family_args(simulate)
    _add_output_args(simulate)
    simulate.add_argument("--trials", type=int, default=10_000)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.set_defaults(func=cmd_simulate, action="")

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except LoccLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
