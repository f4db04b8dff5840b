"""Command-line interface.

Subcommands: family build|check, ppt construct|verify, oneway
certify|prop1|randomized, twoway run, lattice sweep. simulate is a name,
resolved before parsing, for twoway run (--protocol twoway, the default) or
oneway randomized (--protocol randomized), with --trials 10000 unless given,
so its report is that command's. Each command returns its data and its
verdicts, and one emitter prints them as text and, with --json, writes them
to a file beside the run manifest and the report's pass. A verdict is a
value checked against a threshold (tolerance included): it carries the
signed margin, >= 0 exactly when it passes, and whether it gates the exit
code. Identical seeds and arguments reproduce the --json file byte for
byte; --csv writes confusion cells one to a row, to a file other than
--json's, with the exact probability where the command has it and the count
and rate when trials ran. Each command takes only the flags it reads; any
other is a usage error.

Exit codes: 0 = every gating verdict passes, 1 = one fails, 2 = usage error.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .errors import LoccLabError
from .measurements import check_ppt, discrimination_matrix, ppt_discriminator, validate_povm
from .oneway import (
    SCALAR_TOL,
    certify_impossible,
    check_isometry_witness,
    randomized_error_bound,
    randomized_error_exact,
    standardize_triple,
)
from .protocols import (
    TREE_TOL,
    all_lattice_triples,
    build_lattice_triple_protocol,
    build_twoway_even,
    build_twoway_mod3,
    evaluate_exact,
    is_one_way,
)
from .simulate import _MC_Z_BOUND, SimConfig, run_randomized_oneway, sample_confusion
from .states import (
    DEFAULT_BASE_INDICES,
    EvenSpec,
    MaxEntSet,
    Mod3Spec,
    build_family,
    check_orthogonal_mes,
    even_spec,
    k_spec,
    lattice_triple_set,
    mod3_spec,
)

DEFAULT_DECISION_TOL = 1e-9


def _read(name, text, parse, what):
    """parse(text), or a usage error that names the flag or variable it came from."""
    try:
        return parse(text)
    except ValueError:
        raise LoccLabError(f"{name} takes {what}, got {text!r}") from None


def _decision_tol(args):
    """--tol, else LOCC_LAB_TOL, else the default; a NaN, infinite or
    negative tolerance would silently fail or pass every check."""
    source, tol = "--tol", args.tol
    if tol is None:
        source, env = "LOCC_LAB_TOL", os.environ.get("LOCC_LAB_TOL")
        tol = _read(source, env, float, "a number") if env else DEFAULT_DECISION_TOL
    if not (np.isfinite(tol) and tol >= 0):
        raise LoccLabError(f"{source} must be a finite nonnegative number, got {tol}")
    return tol


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
        indices = args.indices and _read(
            "--indices", args.indices, lambda t: tuple(tuple(map(int, p.split(","))) for p in t.split(";")),
            "label pairs such as '0,0;1,1'",
        )
        k = len(indices or DEFAULT_BASE_INDICES) if args.k is None else args.k
        if not indices and k > len(DEFAULT_BASE_INDICES):
            raise LoccLabError(f"--k {k} needs --indices: the default base has {len(DEFAULT_BASE_INDICES)} labels")
        if indices and k != len(indices):
            raise LoccLabError(f"--k {k} does not match the {len(indices)} labels of --indices")
        return k_spec(k=k, r=1 if args.r is None else args.r, indices=indices or None)
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


def _verdict(name, value, threshold, at_least=False, gates=True):
    """value <= threshold, or value >= threshold when at_least, with the
    signed margin, >= 0 exactly when the verdict passes, and whether the
    verdict gates the exit code."""
    value, threshold = float(value), float(threshold)
    margin = value - threshold if at_least else threshold - value
    relation = ">=" if at_least else "<="
    return {"name": name, "value": value, "relation": relation, "threshold": threshold, "margin": margin,
            "pass": bool(margin >= 0), "gates": gates}


def _data_lines(data, indent="  "):
    """Text lines of a data block: a dict nested, a list of rows one row to a
    line, anything else on the line of its key, as JSON writes it."""
    for key, value in data.items():
        if isinstance(value, dict) or (isinstance(value, list) and value and all(isinstance(r, list) for r in value)):
            yield f"{indent}{key}:"
            if isinstance(value, dict):
                yield from _data_lines(value, indent + "  ")
            else:
                yield from (f"{indent}  {json.dumps(row)}" for row in value)
        else:
            yield f"{indent}{key}: {value if isinstance(value, str) else json.dumps(value)}"


def _emit(args, spec, data, verdicts, claim):
    """Print the report and write it to --json; the report passes, and the
    exit code is 0, when every gating verdict passes. The claim line is
    printed only when some verdict gates."""
    ok = all(v["pass"] for v in verdicts if v["gates"])
    outputs = [p for p in (args.json, getattr(args, "csv", None)) if p]
    report = {"manifest": _manifest(args, outputs, spec), "data": data, "verdicts": verdicts, "pass": ok}
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(report["manifest"]["command"])
    for line in _data_lines(data):
        print(line)
    print("verdicts:")
    for v in verdicts:
        print(
            f"  {v['name']}: {v['value']!r} {v['relation']} {v['threshold']!r}, margin {v['margin']!r}: "
            f"{'PASS' if v['pass'] else 'FAIL'}{'' if v['gates'] else ' (not gating)'}"
        )
    if any(v["gates"] for v in verdicts):
        print(f"{claim}: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _write_csv(path, probability=None, counts=None):
    """Confusion cells one to a row: the exact probability where the command
    has it, and the count and rate when trials ran."""
    columns = {} if probability is None else {"probability": probability}
    if counts is not None:
        # a row that no trial prepared has rate 0
        columns.update(count=counts, rate=counts / np.maximum(counts.sum(axis=1, keepdims=True), 1))
    lines = [",".join(["prepared", "decided", *columns])]
    for i, j in np.ndindex(next(iter(columns.values())).shape):
        lines.append(",".join(map(str, (i, j, *(c[i, j] for c in columns.values())))))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ------------------------------------------------------------------ commands
# each returns (spec, data, verdicts, claim) for _emit


def cmd_family(args):
    mes = _build_set(args)
    tol = _decision_tol(args)
    report = check_orthogonal_mes(mes, tol=tol)
    pairs = {f"{i},{j}": v for (i, j), v in report["pairwise_trace_residuals"].items()}
    gates = args.action == "check"
    verdicts = [
        _verdict("unitarity", max(report["unitarity_residuals"]), tol, gates=gates),
        _verdict("pairwise_trace", max(pairs.values(), default=0.0), tol, gates=gates),
        _verdict("reduced_state", max(report["reduced_state_residuals"]), tol, gates=gates),
    ]
    data = {
        "label": mes.label,
        "unitarity_residuals": report["unitarity_residuals"],
        "pairwise_trace_residuals": pairs,
        "reduced_state_residuals": report["reduced_state_residuals"],
        "genericity": mes.spec.genericity(),
    }
    return mes.spec, data, verdicts, "orthogonal maximally entangled set"


def cmd_ppt(args):
    mes = _build_set(args)
    tol = _decision_tol(args)
    povm = ppt_discriminator(mes, force=args.force, refusal="pass --force to build anyway")
    ppt = check_ppt(povm, tol=tol).to_json()
    dm = discrimination_matrix(mes, povm)
    check = validate_povm(povm, tol=tol)
    if args.csv:
        _write_csv(args.csv, probability=dm)
    gates = args.action == "verify"
    povm_residual = max(*check["hermiticity_residuals"], -min(check["min_eigenvalues"]), check["completeness_residual"])
    verdicts = [
        _verdict("pt_positivity", min(ppt["min_pt_eigenvalues"]), -tol, at_least=True, gates=gates),
        _verdict("identity", np.abs(dm - np.eye(mes.k)).max(), tol, gates=gates),
        _verdict("povm", povm_residual, tol, gates=gates),
    ]
    del ppt["pass"], ppt["tol"]
    data = {"label": mes.label, "ppt": ppt, "discrimination_matrix": dm.tolist()}
    return mes.spec, data, verdicts, "PPT + exact discrimination"


def cmd_oneway_certify(args):
    mes = _build_set(args)
    cert = certify_impossible(mes).to_json()
    del cert["family"]
    deviation = cert["residuals"].pop("max_scalar_deviation")
    verdict = _verdict("scalar_deviation", deviation, SCALAR_TOL, gates=args.expect_impossible)
    return mes.spec, {"label": mes.label, **cert}, [verdict], "one-way impossible at these phase values"


def cmd_oneway_prop1(args):
    mes = _build_set(args)
    tol = _decision_tol(args)
    rep = check_isometry_witness(mes, np.eye(mes.d), tol=tol)
    data = {"label": mes.label, "diag_max": {f"{i},{j}": v for (i, j), v in rep["diag_max"].items()}}
    return mes.spec, data, [_verdict("witness", rep["worst"], tol)], "witness certifies one-way protocol"


def cmd_oneway_randomized(args):
    if args.csv and not args.trials:
        raise LoccLabError("--csv needs --trials: the randomized protocol's confusion cells are counted, not exact")
    mes = _build_set(args)
    tol = _decision_tol(args)
    priors = (1 / mes.k,) * mes.k
    if args.priors:
        priors = _read("--priors", args.priors, lambda t: tuple(map(float, t.split(","))), "comma-separated numbers")
    if len(priors) != mes.k:
        raise LoccLabError(f"--priors needs {mes.k} values, one per state, got {len(priors)}")
    order = tuple(int(i) for i in np.argsort(-np.asarray(priors), kind="stable"))
    if args.order:
        order = _read("--order", args.order, lambda t: tuple(map(int, t.split(","))), "comma-separated integers")
    if sorted(order) != list(range(mes.k)):
        raise LoccLabError(f"--order must be a permutation of {','.join(map(str, range(mes.k)))}")
    mes = MaxEntSet(d=mes.d, unitaries=mes.unitaries[list(order)], spec=mes.spec, label=mes.label)
    priors = tuple(priors[i] for i in order)
    # both callees take an in-frame set as it is, so the frame is set up once
    work = standardize_triple(mes)
    bound = randomized_error_bound(mes.d)
    verdicts = [_verdict("exact_error", randomized_error_exact(work, priors), bound + tol)]
    mc = None
    if args.trials:
        mc = run_randomized_oneway(work, SimConfig(seed=args.seed, trials=args.trials, priors=priors))
        verdicts.append(_verdict("mc_z", mc.max_abs_z, _MC_Z_BOUND))
        if args.csv:
            _write_csv(args.csv, counts=mc.empirical_confusion)
    data = {"label": mes.label, "order": list(order), "priors": list(priors), "bound": bound,
            "mc": None if mc is None else mc.to_json()}
    return mes.spec, data, verdicts, "within the bound 2/(3d)"


def _twoway_tree(spec):
    if isinstance(spec, EvenSpec):
        return build_twoway_even(spec)
    if isinstance(spec, Mod3Spec):
        return build_twoway_mod3(spec)
    raise LoccLabError("two-way constructions exist for the even and mod3 families")


def cmd_twoway(args):
    mes = _build_set(args)
    tree = _twoway_tree(mes.spec)
    tol = _decision_tol(args)
    ev = evaluate_exact(tree, mes)
    verdicts = [_verdict("identity", np.abs(ev.confusion - np.eye(mes.k)).max(), tol),
                _verdict("kraus_completeness", tree.completeness_residual, TREE_TOL)]
    mc = None
    if args.trials:
        # the tree is walked once: the sampler reads the confusion just walked
        mc = sample_confusion(ev.confusion, SimConfig(seed=args.seed, trials=args.trials, priors=(1 / 3,) * 3))
        verdicts.append(_verdict("mc_z", mc.max_abs_z, _MC_Z_BOUND))
    if args.csv:
        _write_csv(args.csv, ev.confusion, None if mc is None else mc.empirical_confusion)
    data = {
        "label": tree.label,
        "round_count": tree.round_count,
        "one_way": bool(is_one_way(tree)),
        "tree": dict(nodes=tree.nodes, distinct_nodes=tree.distinct_nodes, leaves=tree.leaves,
                     largest_kraus=list(tree.largest_kraus)),
        "confusion": ev.confusion.tolist(),
        "success": float(ev.success),
        "mc": None if mc is None else mc.to_json(),
    }
    return mes.spec, data, verdicts, "exact discrimination"


def cmd_lattice(args):
    tol = _decision_tol(args)
    if args.limit < 0:
        raise LoccLabError(f"--limit must be nonnegative, got {args.limit}")
    triples = all_lattice_triples()[: args.limit or None]
    failures, worst = [], 0.0
    for triple in triples:
        tree = build_lattice_triple_protocol(triple)
        ev = evaluate_exact(tree, lattice_triple_set(triple))
        dev = float(np.abs(ev.confusion - np.eye(3)).max())
        worst = max(worst, dev)
        one_way = is_one_way(tree)
        if dev > tol or not one_way:
            failures.append({"triple": [list(t) for t in triple], "deviation": dev, "one_way": one_way})
    verdicts = [
        _verdict("worst_deviation", worst, tol),
        _verdict("two_way_trees", sum(not f["one_way"] for f in failures), 0),
    ]
    return None, {"count": len(triples), "failures": failures}, verdicts, "all one-way trees exact"


# ------------------------------------------------------------------- parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="locc-lab",
        description="Local discrimination of maximally entangled states: "
        "families, PPT discriminators, one-way certificates, LOCC protocols.",
        epilog="simulate [--protocol twoway|randomized] ... names twoway run or oneway randomized, "
        "with --trials 10000 unless given.",
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
    _add_output_args(randomized, csv=True)
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

    return parser


def _resolve_simulate(argv):
    """argv, with a leading simulate replaced by the command it names: twoway
    run (--protocol twoway, the default) or oneway randomized (--protocol
    randomized), with --trials 10000 unless given."""
    if argv[:1] != ["simulate"]:
        return argv
    alias = argparse.ArgumentParser(prog="locc-lab simulate", add_help=False, allow_abbrev=False)
    alias.add_argument("--protocol", choices=("twoway", "randomized"), default="twoway")
    alias.add_argument("--trials", default="10000")
    known, rest = alias.parse_known_args(argv[1:])
    command = ["twoway", "run"] if known.protocol == "twoway" else ["oneway", "randomized"]
    return [*command, *rest, "--trials", known.trials]


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(_resolve_simulate(sys.argv[1:] if argv is None else list(argv)))
    try:
        # the report would overwrite the cells, so nothing is written
        csv = getattr(args, "csv", None)
        if csv and args.json and os.path.realpath(csv) == os.path.realpath(args.json):
            raise LoccLabError(f"--csv and --json must name different files, both name {args.json}")
        return _emit(args, *args.func(args))
    except (LoccLabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: not enough memory for this size: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
