"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with `pytest -s tests/test_acceptance.py` to see the PASS lines.
"""

import json
import time

import numpy as np

from locc_lab.cli import main
from locc_lab.measurements import check_ppt, discrimination_matrix, ppt_discriminator
from locc_lab.numerics import dag, frob, identity
from locc_lab.oneway import (
    INCONCLUSIVE,
    ONE_WAY_IMPOSSIBLE,
    certify_impossible,
    randomized_error_bound,
    randomized_error_exact,
)
from locc_lab.protocols import (
    all_lattice_triples,
    build_lattice_triple_protocol,
    build_twoway_even,
    build_twoway_mod3,
    evaluate_exact,
    first_round_elements,
    is_one_way,
    refinement_isometry,
)
from locc_lab.simulate import SimConfig, run_randomized_oneway
from locc_lab.states import (
    MaxEntSet,
    build_family,
    check_orthogonal_mes,
    even_spec,
    k_spec,
    lattice_triple_set,
    mod3_spec,
)
from oracles import builtin_triples_at, eig_hermitian, partial_transpose, std_mes

UNIFORM3 = (1 / 3, 1 / 3, 1 / 3)


def _verdict(ok, name, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_1_pt_spectrum():
    t0 = time.time()
    ok = True
    detail = ""
    for d in (3, 4, 5, 8):
        phi = std_mes(d)
        pt = partial_transpose(np.outer(phi, phi.conj()), d, d)
        vals = eig_hermitian(pt).eigenvalues
        neg = np.sort(vals[: d * (d - 1) // 2])
        pos = np.sort(vals[d * (d - 1) // 2 :])
        if not (
            np.allclose(neg, -1 / d, atol=1e-10) and np.allclose(pos, 1 / d, atol=1e-10)
        ):
            ok = False
            detail = f"wrong spectrum at d={d}"
            break
    elapsed = time.time() - t0
    ok = ok and elapsed < 1.0
    _verdict(ok, "criterion 1: partial-transpose spectrum of the standard state",
             detail or f"{elapsed:.2f}s")


def test_criterion_2_ppt_discriminator():
    t0 = time.time()
    worst_dev = 0.0
    worst_margin = np.inf
    count = 0
    for d in (4, 5, 6, 8, 10, 16):
        for mes in builtin_triples_at(d):
            povm = ppt_discriminator(mes)
            dm = discrimination_matrix(mes, povm)
            worst_dev = max(worst_dev, float(np.abs(dm - np.eye(3)).max()))
            rep = check_ppt(povm)
            floor = (1 / 3) * (1 - 4 / d)
            worst_margin = min(worst_margin, min(rep.min_pt_eigenvalues) - floor)
            count += 1
    elapsed = time.time() - t0
    ok = worst_dev <= 1e-9 and worst_margin >= -1e-9 and elapsed < 10.0
    _verdict(ok, "criterion 2: PPT discriminator on all built-in triples",
             f"{count} families, max dm deviation {worst_dev:.1e}, "
             f"min floor margin {worst_margin:.1e}, {elapsed:.1f}s")


def test_criterion_3_oneway_certificates():
    t0 = time.time()
    ok = True
    details = []
    for d in (4, 6, 8, 10):
        c = certify_impossible(build_family(even_spec(d)))
        if c.conclusion != ONE_WAY_IMPOSSIBLE:
            ok = False
            details.append(f"even d={d}: {c.conclusion}")
    for d in (5, 8, 11):
        c = certify_impossible(build_family(mod3_spec(d)))
        if c.conclusion != ONE_WAY_IMPOSSIBLE:
            ok = False
            details.append(f"mod3 d={d}: {c.conclusion}")
    degenerate = build_family(even_spec(4, omega=1.0, gamma=1.0))
    c = certify_impossible(degenerate)
    if c.conclusion != INCONCLUSIVE:
        ok = False
        details.append(f"degenerate control: {c.conclusion}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 5.0
    _verdict(ok, "criterion 3: one-way impossibility certificates",
             "; ".join(details) or f"7 impossible + negative control, {elapsed:.1f}s")


def test_criterion_4_randomized_bound():
    t0 = time.time()
    ok = True
    details = []
    for d in range(4, 17):
        for mes in builtin_triples_at(d):
            err = randomized_error_exact(mes, UNIFORM3)
            if err > randomized_error_bound(mes.d) + 1e-9:
                ok = False
                details.append(f"{mes.label}: {err:.4f}")
    s = build_family(even_spec(4))
    ordered = MaxEntSet(d=4, unitaries=(s.unitaries[0], s.unitaries[2], s.unitaries[1]))
    err = randomized_error_exact(ordered, UNIFORM3)
    if abs(err - 1 / 6) > 1e-9:
        ok = False
        details.append(f"tightness: {err}")
    mc = run_randomized_oneway(ordered, SimConfig(seed=2024, trials=100_000, priors=UNIFORM3))
    if abs(mc.z_score) > 4.0:
        ok = False
        details.append(f"MC z={mc.z_score:.2f}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 30.0
    _verdict(ok, "criterion 4: randomized one-way error bound 2/(3d)",
             "; ".join(details) or f"tight at d=4, MC z={mc.z_score:+.2f}, {elapsed:.1f}s")


def test_criterion_5_twoway_separation():
    t0 = time.time()
    ok = True
    details = []
    cases = [
        (even_spec(4), build_family, build_twoway_even),
        (even_spec(6), build_family, build_twoway_even),
        (mod3_spec(5), build_family, build_twoway_mod3),
    ]
    for spec, build, protocol in cases:
        mes = build(spec)
        cert = certify_impossible(mes)
        ev = evaluate_exact(protocol(spec), mes)
        dev = float(np.abs(ev.confusion - np.eye(3)).max())
        if cert.conclusion != ONE_WAY_IMPOSSIBLE:
            ok = False
            details.append(f"{mes.label} not certified impossible")
        if dev > 1e-9:
            ok = False
            details.append(f"{mes.label} two-way deviation {dev:.1e}")
    spec5 = mod3_spec(5)
    w15 = refinement_isometry(spec5.omega, spec5.gamma)
    if frob(dag(w15) @ w15 - identity(5)) > 1e-12:
        ok = False
        details.append("refinement isometry fails completeness")
    mes5 = build_family(spec5)
    a0 = first_round_elements(1)[0]
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            sandwich = w15 @ mes5.unitaries[i] @ a0 @ dag(mes5.unitaries[j]) @ dag(w15)
            if np.abs(np.diag(sandwich)).max() > 1e-10:
                ok = False
                details.append(f"nonzero diagonal for pair ({i},{j})")
    elapsed = time.time() - t0
    ok = ok and elapsed < 20.0
    _verdict(ok, "criterion 5: two-way protocols succeed where one-way is impossible",
             "; ".join(details) or f"3 families separated, goldens hold, {elapsed:.1f}s")


def test_criterion_6_lattice_sweep():
    t0 = time.time()
    triples = all_lattice_triples()
    worst = 0.0
    bad = None
    for triple in triples:
        tree = build_lattice_triple_protocol(triple)
        if not is_one_way(tree):
            bad = triple
            break
        ev = evaluate_exact(tree, lattice_triple_set(triple))
        dev = float(np.abs(ev.confusion - np.eye(3)).max())
        if dev > worst:
            worst = dev
        if dev > 1e-9:
            bad = triple
            break
    elapsed = time.time() - t0
    ok = bad is None and len(triples) == 560 and elapsed < 60.0
    _verdict(ok, "criterion 6: all 560 lattice triples one-way distinguishable",
             f"worst deviation {worst:.1e}, {elapsed:.1f}s" if bad is None else f"failed at {bad}")


def test_criterion_7_k_family_reduction():
    t0 = time.time()
    ok = True
    details = []
    for r in (1, 3):
        mes = build_family(k_spec(k=4, r=r))
        rep = check_orthogonal_mes(mes, tol=1e-9)
        if not rep["pass"]:
            ok = False
            details.append(f"r={r} orthogonality fails")
        cert = certify_impossible(mes)
        if cert.reduction_holds is not True:
            ok = False
            details.append(f"r={r} reduction_holds={cert.reduction_holds}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 10.0
    _verdict(ok, "criterion 7: four-state families orthogonal with forced reduction",
             "; ".join(details) or f"r in (1,3), {elapsed:.1f}s")


def test_criterion_8_reproducibility(tmp_path, capsys):
    target = tmp_path / "report.json"
    args = [
        "simulate", "--family", "even", "--d", "4",
        "--trials", "3000", "--seed", "777", "--json", str(target),
    ]
    code1 = main(args)
    first = target.read_bytes()
    code2 = main(args)
    second = target.read_bytes()
    capsys.readouterr()
    ok = code1 == 0 and code2 == 0 and first == second
    doc = json.loads(first)
    ok = ok and doc["manifest"]["options"]["seed"] == 777
    _verdict(ok, "criterion 8: identical seeds give byte-identical reports",
             f"{len(first)} bytes")
