import json
import re
import shlex
from pathlib import Path

import pytest

from locc_lab import cli, oneway, simulate
from locc_lab.cli import main
from locc_lab.oneway import randomized_error_exact
from locc_lab.simulate import SimConfig, run_monte_carlo, run_randomized_oneway
from locc_lab.states import MaxEntSet, build_family, even_spec


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def printed(out, key):
    """What the text report prints after a data key or a verdict name."""
    return re.search(rf"^ +{re.escape(key)}: (.+)$", out, re.M).group(1)


def verdicts(doc):
    return {v["name"]: v for v in doc["verdicts"]}


EVEN4 = ["--family", "even", "--d", "4"]


def test_family_build_even(capsys):
    code, out, _ = run(["family", "build", "--family", "even", "--d", "4"], capsys)
    assert code == 0
    assert "PASS" in out


def test_family_check_builds_degenerate_phases(capsys, tmp_path):
    # a set on its degeneracy locus is built and checked like any other; its
    # distance from the locus is reported, not refused
    target = tmp_path / "family.json"
    code, out, _ = run(
        ["family", "check", "--family", "even", "--d", "4", "--omega-frac", "0", "--gamma-frac", "0",
         "--json", str(target)],
        capsys,
    )
    assert code == 0 and "PASS" in out
    doc = json.loads(target.read_text())
    assert doc["pass"] is True and min(doc["data"]["genericity"].values()) == 0.0


@pytest.mark.parametrize(
    "argv",
    [
        ["family", "build", "--family", "even", "--d", "10000000"],
        ["oneway", "certify", "--family", "k", "--k", "4", "--r", "3000000"],
    ],
)
def test_unallocatable_size_exits_2(argv, capsys):
    # dense d x d arrays of 100+ TiB: NumPy refuses them before allocating
    code, _, err = run(argv, capsys)
    assert code == 2
    assert err.startswith("error: not enough memory") and "Traceback" not in err


def test_usage_error_no_traceback(capsys):
    code, _, err = run(["family", "build", "--family", "even", "--d", "7"], capsys)
    assert code == 2
    assert "error:" in err
    assert "Traceback" not in err


def test_ppt_verify_mod3(capsys, tmp_path):
    out_json = tmp_path / "ppt.json"
    code, out, _ = run(
        ["ppt", "verify", "--family", "mod3", "--d", "5", "--k", "3", "--json", str(out_json)],
        capsys,
    )
    assert code == 0
    doc = json.loads(out_json.read_text())
    assert doc["pass"] is True
    ppt, tol = doc["data"]["ppt"], verdicts(doc)["identity"]["threshold"]
    assert abs(ppt["bound"] - 1 / 15) <= 1e-12
    assert tol == 1e-9 and verdicts(doc)["pt_positivity"]["threshold"] == -1e-9
    assert ppt["margin"] == min(ppt["min_pt_eigenvalues"]) - (ppt["bound"] - tol)
    assert 0 <= ppt["margin"] <= 2e-9  # the mod-3 family sits on the floor
    assert printed(out, "margin") == repr(ppt["margin"])
    assert doc["manifest"]["command"] == "ppt verify"
    assert doc["manifest"]["spec"]["kind"] == "mod3"
    assert doc["manifest"]["tool_version"]


def test_ppt_verify_reports_block_sizes_reproducibly(capsys, tmp_path):
    target = tmp_path / "ppt.json"
    args = ["ppt", "verify", "--family", "mod3", "--d", "23", "--json", str(target)]
    code, out, _ = run(args, capsys)
    first = target.read_bytes()
    assert code == 0 and run(args, capsys)[0] == 0
    assert target.read_bytes() == first
    ppt = json.loads(first)["data"]["ppt"]
    assert (ppt["blocks"], ppt["distinct_blocks"], ppt["largest_block"]) == (93, 9, 12)
    assert [printed(out, key) for key in ("blocks", "distinct_blocks", "largest_block")] == ["93", "9", "12"]


def test_ppt_verify_judges_a_set_beyond_the_guarantee(capsys, tmp_path):
    # k = 8 > d/2 + 1 = 7 at d = 12: PT positivity is not guaranteed there,
    # so check_ppt decides it, and this set passes
    target = tmp_path / "ppt.json"
    code, out, err = run(
        ["ppt", "verify", "--family", "k", "--k", "8", "--r", "1", "--indices", "0,0;0,1;0,2;0,3;1,0;1,1;1,2;1,3",
         "--json", str(target)],
        capsys,
    )
    assert code == 0 and err == "" and "PASS" in out
    doc = json.loads(target.read_text())
    assert doc["pass"] is True and doc["data"]["ppt"]["bound"] < 0
    assert verdicts(doc)["pt_positivity"]["margin"] >= 0 and "force" not in doc["manifest"]["options"]


def test_oneway_certify_even4(capsys, tmp_path):
    out_json = tmp_path / "cert.json"
    code, out, _ = run(
        [
            "oneway", "certify", "--family", "even", "--d", "4",
            "--expect-impossible", "--json", str(out_json),
        ],
        capsys,
    )
    assert code == 0
    doc = json.loads(out_json.read_text())
    assert doc["data"]["conclusion"] == "OneWayImpossible"
    assert doc["data"]["forced_pair"] == [0, 1]
    assert printed(out, "forced_pair") == "[0, 1]"


def test_oneway_certify_degenerate_fails_expectation(capsys):
    code, out, _ = run(
        [
            "oneway", "certify", "--family", "even", "--d", "4",
            "--omega-frac", "0", "--gamma-frac", "0", "--expect-impossible",
        ],
        capsys,
    )
    assert code == 1
    assert "Inconclusive" in out


def test_oneway_prop1_fails_on_even4(capsys):
    code, out, _ = run(["oneway", "prop1", "--family", "even", "--d", "4"], capsys)
    assert code == 1
    assert "FAIL" in out


def test_oneway_randomized_with_order(capsys, tmp_path):
    out_json = tmp_path / "rand.json"
    code, out, _ = run(
        [
            "oneway", "randomized", "--family", "even", "--d", "4",
            "--order", "0,2,1", "--json", str(out_json),
        ],
        capsys,
    )
    assert code == 0
    doc = json.loads(out_json.read_text())
    assert abs(verdicts(doc)["exact_error"]["value"] - 1 / 6) <= 1e-9
    assert abs(doc["data"]["bound"] - 1 / 6) <= 1e-12


def test_oneway_randomized_checks_priors_count_before_order(capsys):
    code, _, err = run(["oneway", "randomized", "--family", "even", "--d", "4", "--priors", "0.5,0.5"], capsys)
    assert code == 2
    assert "--priors needs 3 values" in err
    assert "--order" not in err


def test_oneway_randomized_refuses_k4_through_the_library(capsys):
    code, _, err = run(["oneway", "randomized", "--family", "k", "--k", "4"], capsys)
    assert code == 2
    assert "exactly 3 states, got 4" in err


@pytest.mark.parametrize("k", ["0", "-1"])
def test_k_below_one_exit_2(capsys, tmp_path, k):
    out_json = tmp_path / "fam.json"
    code, _, err = run(["family", "build", "--family", "k", "--k", k, "--json", str(out_json)], capsys)
    assert code == 2
    assert "k >= 1" in err
    assert not out_json.exists()


@pytest.mark.parametrize("r", ["0", "-1"])
def test_k_r_below_one_exit_2(capsys, r):
    code, out, err = run(["oneway", "certify", "--family", "k", "--k", "3", "--r", r], capsys)
    assert code == 2
    assert "k_state family needs r >= 1" in err
    assert "negative dimensions" not in err
    assert out == ""


def test_oneway_randomized_error_not_negative(capsys, tmp_path):
    # 1 - sum |u_2[a, a]|^2 / d rounds below 0 on this set unless clamped
    target = tmp_path / "rand.json"
    code, out, _ = run(
        ["oneway", "randomized", "--family", "k", "--k", "3", "--r", "100", "--indices", "0,0;1,1;2,2",
         "--json", str(target)],
        capsys,
    )
    assert code == 0
    error = verdicts(json.loads(target.read_text()))["exact_error"]["value"]
    assert 0 <= error < 5e-9
    assert printed(out, "exact_error").startswith(f"{error!r} <= ")


def test_twoway_run_even4(capsys, tmp_path):
    out_csv = tmp_path / "conf.csv"
    code, out, _ = run(
        ["twoway", "run", "--family", "even", "--d", "4", "--csv", str(out_csv)],
        capsys,
    )
    assert code == 0
    assert abs(float(printed(out, "success")) - 1.0) < 5e-10
    lines = out_csv.read_text().strip().split("\n")
    assert lines[0] == "prepared,decided,probability"
    assert len(lines) == 10


def test_twoway_report_carries_tree_statistics(capsys, tmp_path):
    target = tmp_path / "twoway.json"
    code, _, _ = run(["twoway", "run", "--family", "even", "--d", "8", "--json", str(target)], capsys)
    doc = json.loads(target.read_text())
    assert code == 0
    # the keys and types of the README's `tree` bullet
    text = README.read_text(encoding="utf-8")
    bullet = text[text.index("- `tree` holds") : text.index("\n- ", text.index("- `tree` holds"))]
    schema = {key: types for key, types in re.findall(r"`(\w+)`\s+\((\w+)\)", bullet)}
    tree = doc["data"]["tree"]
    assert {key: TYPES[t] for key, t in schema.items()} == {key: type(v) for key, v in tree.items()}
    # the (m - 1)^2 = 9 teleport corrections share one closing measurement
    assert tree == {"nodes": 205, "distinct_nodes": 41, "leaves": 123, "largest_kraus": [8, 8]}
    completeness = verdicts(doc)["kraus_completeness"]
    assert (completeness["threshold"], completeness["pass"], completeness["gates"]) == (1e-9, True, True)
    assert 0 <= completeness["value"] <= 1e-15


def test_twoway_exact_flag_is_a_usage_error(capsys):
    # exact evaluation always runs; the flag that claimed to select it is gone
    with pytest.raises(SystemExit) as exc:
        main(["twoway", "run", "--family", "even", "--d", "4", "--exact"])
    assert exc.value.code == 2
    assert "--exact" in capsys.readouterr().err


def test_twoway_rejects_k_family(capsys):
    code, _, err = run(["twoway", "run", "--family", "k", "--k", "4"], capsys)
    assert code == 2
    assert "two-way" in err


@pytest.mark.parametrize(
    "argv,unread",
    [
        (["family", "build", "--family", "k", "--d", "100"], "--d"),
        (["family", "build", "--family", "k", "--omega-frac", "0.3"], "--omega-frac"),
        (["family", "build", "--family", "k", "--gamma-frac", "0.3"], "--gamma-frac"),
        (["family", "build", "--family", "even", "--d", "4", "--indices", "0,0;1,1;2,2"], "--indices"),
        (["family", "build", "--family", "even", "--d", "4", "--r", "2"], "--r"),
        (["twoway", "run", "--family", "mod3", "--d", "5", "--r", "1"], "--r"),
    ],
)
def test_family_flags_the_family_does_not_read_exit_2(argv, unread, capsys, tmp_path):
    out_json = tmp_path / "report.json"
    code, _, err = run(argv + ["--json", str(out_json)], capsys)
    assert code == 2
    assert f"family does not read {unread}" in err
    assert not out_json.exists()


def test_k_family_r_defaults_to_one(capsys, tmp_path):
    out_json = tmp_path / "family.json"
    code, _, _ = run(["family", "build", "--family", "k", "--k", "3", "--json", str(out_json)], capsys)
    assert code == 0
    doc = json.loads(out_json.read_text())
    # the spec writes r; d = m + k*r = 4 + 3 is derived, so only the label reports it
    assert doc["manifest"]["spec"]["r"] == 1 and doc["data"]["label"] == "k_state(k=3,d=7)"
    assert doc["manifest"]["options"]["r"] is None


@pytest.mark.parametrize(
    "command", [["family", "build"], ["ppt", "verify"], ["oneway", "certify"], ["twoway", "run"], ["simulate"]]
)
def test_k_flag_must_match_the_three_state_families(command, capsys):
    for family, d in (("even", "4"), ("mod3", "5")):
        argv = command + ["--family", family, "--d", d]
        code, _, err = run(argv + ["--k", "4"], capsys)
        assert code == 2
        assert "--k 4 does not match the 3-state family" in err
        code, _, _ = run(argv + ["--k", "3"], capsys)
        assert code == 0


def test_lattice_sweep_limited(capsys):
    code, out, _ = run(["lattice", "sweep", "--limit", "25"], capsys)
    assert code == 0
    assert printed(out, "count") == "25"


def test_lattice_sweep_names_a_two_way_tree(capsys, tmp_path, monkeypatch):
    # an exact tree that is not one-way fails with its reason in the report
    monkeypatch.setattr(cli, "is_one_way", lambda tree: False)
    target = tmp_path / "lattice.json"
    code, out, _ = run(["lattice", "sweep", "--limit", "2", "--json", str(target)], capsys)
    assert code == 1 and "FAIL" in out
    doc = json.loads(target.read_text())
    failures = doc["data"]["failures"]
    assert len(failures) == 2
    assert all(f["one_way"] is False and f["deviation"] <= 1e-15 for f in failures)
    assert verdicts(doc)["two_way_trees"]["value"] == 2 and not verdicts(doc)["two_way_trees"]["pass"]


def test_lattice_sweep_rejects_negative_limit(capsys):
    code, out, err = run(["lattice", "sweep", "--limit", "-3"], capsys)
    assert code == 2
    assert "--limit" in err and "triples" not in out


def test_simulate_reproducible_bytes(capsys, tmp_path):
    target = tmp_path / "sim.json"
    args = [
        "simulate", "--family", "mod3", "--d", "5",
        "--trials", "400", "--seed", "42", "--json", str(target),
    ]
    assert main(args) == 0
    first = target.read_bytes()
    assert main(args) == 0
    assert target.read_bytes() == first
    capsys.readouterr()


def test_simulate_randomized_protocol(capsys, tmp_path):
    out_csv = tmp_path / "sim.csv"
    code, out, _ = run(
        [
            "simulate", "--protocol", "randomized", "--family", "even", "--d", "4",
            "--trials", "2000", "--seed", "5", "--csv", str(out_csv),
        ],
        capsys,
    )
    assert code == 0
    assert out_csv.read_text().startswith("prepared,decided,probability,count,rate")


@pytest.mark.parametrize(
    "protocol, command",
    [
        (["--protocol", "twoway"], ["twoway", "run", "--family", "mod3", "--d", "5", "--tol", "1e-8", "--seed", "9"]),
        (["--protocol", "randomized"], ["oneway", "randomized", *EVEN4, "--trials", "3000", "--seed", "5"]),
        ([], ["twoway", "run", *EVEN4, "--seed", "3"]),
    ],
)
def test_simulate_is_a_name_for_the_command(protocol, command, capsys, tmp_path):
    # simulate takes the named command's flags, --trials 10000 unless
    # given, and writes that command's report and CSV byte for byte
    target, cells = tmp_path / "report.json", tmp_path / "cells.csv"
    outputs = ["--json", str(target), "--csv", str(cells)]
    flags = command[2:]
    code, out, _ = run(["simulate", *protocol, *flags, *outputs], capsys)
    report, csv = target.read_bytes(), cells.read_bytes()
    trials = [] if "--trials" in flags else ["--trials", "10000"]
    assert run(command + trials + outputs, capsys) == (code, out, "")
    assert (target.read_bytes(), cells.read_bytes()) == (report, csv)
    doc = json.loads(report)
    assert doc["manifest"]["command"] == " ".join(command[:2]) and code == 0
    assert doc["data"]["mc"]["trials"] == (3000 if trials == [] else 10000)
    assert csv.decode().split("\n")[0].endswith("count,rate")


def test_simulate_refuses_an_unknown_protocol(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--protocol", "oneway", *EVEN4])
    assert exc.value.code == 2 and "--protocol" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["--family", "mod3", "--d", "5", "--trials", "2000", "--seed", "7"],
         {"empirical_confusion": [[683, 0, 0], [0, 665, 0], [0, 0, 652]], "success_rate": 1.0, "stderr": 0.0,
          "exact_success": 1.0, "z_score": 0.0}),
        (["--family", "even", "--d", "16", "--trials", "3000", "--seed", "4"],
         {"empirical_confusion": [[977, 0, 0], [0, 1029, 0], [0, 0, 994]], "success_rate": 1.0, "stderr": 0.0,
          "exact_success": 0.9999999999999983, "z_score": 2.2351741790771506e-06}),
    ],
    ids=["mod3_5", "even16"],
)
def test_twoway_trials_sample_the_walked_tree(argv, golden, capsys, tmp_path, monkeypatch):
    # one exact walk serves both the identity verdict and the sampler, and
    # the counts are run_monte_carlo's for the same seed
    walks = []
    walk = cli.evaluate_exact
    monkeypatch.setattr(cli, "evaluate_exact", lambda *a: walks.append(a) or walk(*a))
    monkeypatch.setattr(simulate, "evaluate_exact", lambda *a: walks.append(a) or walk(*a))
    target = tmp_path / "twoway.json"
    code, _, _ = run(["twoway", "run", *argv, "--json", str(target)], capsys)
    assert code == 0 and len(walks) == 1
    doc = json.loads(target.read_text())
    mc = doc["data"]["mc"]
    assert {key: mc[key] for key in golden} == golden
    spec = cli._spec_from_args(cli.build_parser().parse_args(["twoway", "run", *argv]))
    cfg = SimConfig(seed=mc["seed"], trials=mc["trials"], priors=(1 / 3,) * 3)
    again = run_monte_carlo(cli._twoway_tree(spec), build_family(spec), cfg)
    assert json.loads(json.dumps(again.to_json())) == mc
    # mc_z is the largest abs(z) over the success rate and the cells
    z = verdicts(doc)["mc_z"]["value"]
    assert z == max(abs(mc["z_score"]), *(abs(c) for row in mc["cell_z"] for c in row)) and mc["flags"] == []


def test_oneway_randomized_csv_writes_exact_cells_without_trials(capsys, tmp_path):
    # the exact confusion exists without trials, so --csv writes its cells,
    # and the counts beside them once trials ran
    target = tmp_path / "cells.csv"
    code, _, _ = run(["oneway", "randomized", *EVEN4, "--order", "0,2,1", "--csv", str(target)], capsys)
    assert code == 0
    lines = target.read_text().strip().split("\n")
    assert lines[0] == "prepared,decided,probability" and len(lines) == 1 + 9
    assert [float(line.split(",")[2]) for line in lines[7:]] == [0.25, 0.25, 0.5]
    code, _, _ = run(["oneway", "randomized", *EVEN4, "--order", "0,2,1", "--trials", "300", "--csv", str(target)], capsys)
    lines = target.read_text().strip().split("\n")
    assert code == 0 and lines[0] == "prepared,decided,probability,count,rate"
    assert sum(int(line.split(",")[3]) for line in lines[1:]) == 300


@pytest.mark.parametrize(
    "command",
    [["twoway", "run", "--family", "mod3", "--d", "5", "--trials", "200"], ["ppt", "verify", *EVEN4]],
    ids=["twoway", "ppt"],
)
def test_csv_and_json_must_name_different_files(command, capsys, tmp_path, monkeypatch):
    # the report would overwrite the cells: a usage error naming both flags,
    # with nothing written, whether the two paths are spelled alike or not
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    for csv, report in (("x", "x"), ("x", "./sub/../x")):
        code, out, err = run([*command, "--csv", csv, "--json", report], capsys)
        assert code == 2 and out == "" and "--csv" in err and "--json" in err
        assert not (tmp_path / "x").exists()


def test_non_finite_phase_fractions_exit_2(capsys):
    for flag in ("--omega-frac", "--gamma-frac"):
        for value in ("nan", "inf", "-inf"):
            code, _, err = run(["oneway", "certify", "--family", "even", "--d", "4", f"{flag}={value}"], capsys)
            assert code == 2
            assert f"{flag} must be a finite number" in err
            assert "Traceback" not in err


def test_out_of_range_seed_exit_2(capsys):
    for seed in ("-1", str(2**64)):
        code, _, err = run(
            ["simulate", "--protocol", "randomized", "--family", "even", "--d", "4",
             "--trials", "10", "--seed", seed],
            capsys,
        )
        assert code == 2
        assert "seed must lie in [0, 2**64)" in err


def test_bad_tolerance_flag_exit_2(capsys):
    for value in ("nan", "inf", "-inf", "-1e-9"):
        code, _, err = run(["ppt", "verify", "--family", "even", "--d", "4", f"--tol={value}"], capsys)
        assert code == 2
        assert "--tol must be a finite nonnegative number" in err
        assert "Traceback" not in err


def test_tolerance_environment_variable_is_ignored(capsys, monkeypatch, tmp_path):
    # --tol alone sets the tolerance, so the report records what decided
    # every threshold; an environment variable, bad or not, changes nothing
    target = tmp_path / "r.json"
    for value in ("0.5", "nan", "abc"):
        monkeypatch.setenv("LOCC_LAB_TOL", value)
        for flags, tol in (([], 1e-9), (["--tol", "1e-3"], 1e-3)):
            code, _, _ = run(["family", "check", *EVEN4, *flags, "--json", str(target)], capsys)
            doc = json.loads(target.read_text())
            assert code == 0 and doc["manifest"]["options"]["tol"] == (tol if flags else None)
            assert {v["threshold"] for v in doc["verdicts"]} == {tol}


@pytest.mark.parametrize(
    "argv",
    [
        ["family", "build", *EVEN4, "--csv", "CSV"],
        ["oneway", "certify", *EVEN4, "--csv", "CSV"],
        ["oneway", "prop1", *EVEN4, "--csv", "CSV"],
        ["lattice", "sweep", "--limit", "1", "--csv", "CSV"],
        ["oneway", "certify", *EVEN4, "--tol", "nan"],
        ["simulate", *EVEN4, "--priors", "0.5,0.3,0.2"],
        ["oneway", "certify", *EVEN4, "--priors", "0.5,0.3,0.2"],
        ["oneway", "certify", *EVEN4, "--order", "0,1,2"],
        ["oneway", "certify", *EVEN4, "--trials", "10"],
        ["oneway", "certify", *EVEN4, "--seed", "1"],
        ["oneway", "prop1", *EVEN4, "--priors", "0.5,0.3,0.2"],
        ["oneway", "prop1", *EVEN4, "--order", "0,1,2"],
        ["oneway", "prop1", *EVEN4, "--trials", "10"],
        ["oneway", "prop1", *EVEN4, "--seed", "1"],
        ["oneway", "prop1", *EVEN4, "--expect-impossible"],
        ["oneway", "randomized", *EVEN4, "--expect-impossible"],
        ["simulate", "--protocol", "randomized", *EVEN4, "--force"],
    ],
)
def test_flags_the_command_does_not_read_exit_2(argv, capsys, tmp_path):
    out_json, out_csv = tmp_path / "report.json", tmp_path / "report.csv"
    argv = [str(out_csv) if a == "CSV" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--json", str(out_json)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err and "Traceback" not in err
    assert not out_json.exists() and not out_csv.exists()


def test_oneway_randomized_sets_up_the_frame_once(capsys, monkeypatch, tmp_path):
    # u_1 u_0^dag is monomial but not diagonal here, so the third state's
    # weight in the frame reads its cycles, once
    calls = []
    read_cycles = oneway.diagonalize_monomial
    monkeypatch.setattr(oneway, "diagonalize_monomial", lambda u: calls.append(1) or read_cycles(u))
    target = tmp_path / "rand.json"
    code, _, _ = run(
        ["oneway", "randomized", "--family", "even", "--d", "16", "--order", "1,0,2", "--trials", "200", "--seed", "3",
         "--json", str(target)], capsys
    )
    assert code == 0
    assert len(calls) == 1
    # that one confusion gives the library's exact error and Monte Carlo report
    doc = json.loads(target.read_text())
    s = build_family(even_spec(16))
    s = MaxEntSet(d=16, unitaries=s.unitaries[[1, 0, 2]])
    assert verdicts(doc)["exact_error"]["value"] == randomized_error_exact(s, (1 / 3,) * 3)
    again = run_randomized_oneway(s, SimConfig(seed=3, trials=200, priors=(1 / 3,) * 3))
    assert json.loads(json.dumps(again.to_json())) == doc["data"]["mc"]


def test_oneway_randomized_refuses_priors_before_the_confusion(capsys, monkeypatch):
    # priors that do not sum to 1 exit 2 with their own message before any
    # d x d product is formed
    monkeypatch.setattr(cli, "randomized_confusion", lambda mes: pytest.fail("confusion computed"))
    code, out, err = run(["oneway", "randomized", *EVEN4, "--priors", "0.5,0.5,0.5"], capsys)
    assert code == 2 and out == ""
    assert err == "error: priors must be finite, nonnegative and sum to 1\n"


def test_simulate_builds_and_twoway_refuses_degenerate_phases(capsys):
    degenerate = ["--family", "even", "--d", "4", "--omega-frac", "0", "--gamma-frac", "0"]
    code, out, _ = run(["simulate", "--protocol", "randomized", *degenerate, "--trials", "500", "--seed", "1"], capsys)
    assert code == 0 and "PASS" in out
    # the set is built; the two-way construction itself refuses the phases
    code, _, err = run(["twoway", "run", *degenerate], capsys)
    assert code == 2
    assert "two-way construction needs generic phases" in err


@pytest.mark.parametrize(
    "command, verdict",
    [
        (["family", "check"], "orthogonal maximally entangled set: PASS"),
        (["oneway", "certify"], "reduction_holds: true"),
        (["oneway", "prop1"], "witness certifies one-way protocol: PASS"),
    ],
)
def test_one_state_k_family_is_vacuous(command, verdict, capsys, tmp_path):
    # a set with no pairs: nothing to be orthogonal to, no constraint on the
    # first round, no diagonal to vanish
    target = tmp_path / "one.json"
    code, out, err = run(command + ["--family", "k", "--k", "1", "--indices", "0,0", "--json", str(target)], capsys)
    assert code == 0 and "error:" not in err
    assert verdict in out
    doc = json.loads(target.read_text())
    if command == ["oneway", "certify"]:
        cert = doc["data"]
        assert cert["conclusion"] == oneway.INCONCLUSIVE and cert["forced_pair"] is None
        assert cert["reduction_holds"] is True and cert["residuals"]["max_reduction_residual"] == 0.0


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(heading, language):
    """The first ```language block after the README heading."""
    text = README.read_text(encoding="utf-8")
    start = text.index(f"```{language}\n", text.index(f"\n{heading}\n")) + len(language) + 4
    return text[start : text.index("```", start)]


def test_readme_cli_lines_run(capsys, tmp_path, monkeypatch):
    # every example either passes or fails its check; none is a usage error
    monkeypatch.chdir(tmp_path)
    lines = [line for line in readme_block("## CLI", "sh").splitlines() if line.startswith("locc-lab ")]
    assert len(lines) >= 10
    for line in lines:
        code, _, err = run(shlex.split(line, comments=True)[1:], capsys)
        assert code in (0, 1) and "error:" not in err and "Traceback" not in err, line


def test_readme_library_example_runs(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    exec(compile(readme_block("## Library example", "python"), str(README), "exec"), {})


@pytest.mark.parametrize(
    "argv",
    [
        ["family", "check", "--family", "k", "--k", "5"],
        ["oneway", "randomized", *EVEN4, "--priors", "a,b,c"],
        ["oneway", "randomized", *EVEN4, "--order", "a"],
        ["family", "build", "--family", "k", "--indices", "0,0;x"],
    ],
    ids=["--indices-default-base", "--priors", "--order", "--indices"],
)
def test_refusal_names_the_flag(argv, capsys, request):
    code, out, err = run(argv, capsys)
    flag = request.node.callspec.id.removesuffix("-default-base")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and flag in err and "Traceback" not in err


def readme_schema():
    """The report schema of the README's Reports section: the top-level,
    manifest and verdict keys and each command's data keys, each with its
    types and whether it may be absent."""
    text = README.read_text(encoding="utf-8")
    text = text[text.index("\n## Reports\n") : text.index("\n## Library example\n")]

    def keys(fragment):
        return {
            key: (types.split(",")[0].split(" or "), "only" in types)
            for key, types in re.findall(r"`(\w+)` \(([^)]*)\)", fragment)
        }

    top = keys("\n".join(re.findall(r"^- `\w+` \(\w+\)", text, re.M)))
    start = "- `manifest` (object):"
    manifest = keys(text[text.index(start) + len(start) : text.index("\n- `data`")])
    verdict = keys(text[text.index("A verdict has") : text.index("\n\n", text.index("A verdict has"))])
    data = {}
    table = text[text.index("| command | `data` keys |") :]
    for row in re.findall(r"^\| (.+) \| (.+) \|$", table, re.M)[1:]:
        for command in re.findall(r"`([^`]+)`", row[0]):
            data[command] = keys(row[1])
    return top, manifest, verdict, data


TYPES = {"string": str, "number": (int, float), "integer": int, "boolean": bool, "list": list, "object": dict, "null": type(None)}


def assert_keys(doc, schema):
    assert {k for k, (_, optional) in schema.items() if not optional} <= set(doc) <= set(schema)
    for key, value in doc.items():
        kinds = tuple(TYPES[t] for t in schema[key][0])
        assert isinstance(value, kinds) and (bool in kinds or not isinstance(value, bool)), (key, value)


@pytest.mark.parametrize(
    "argv",
    [
        ["family", "check", "--family", "k", "--k", "4", "--r", "2"],
        ["family", "build", "--family", "mod3", "--d", "8"],
        ["ppt", "verify", "--family", "mod3", "--d", "23"],
        ["ppt", "construct", "--family", "k", "--k", "8", "--r", "1", "--indices", "0,0;0,1;0,2;0,3;1,0;1,1;1,2;1,3"],
        ["oneway", "certify", "--family", "even", "--d", "12", "--expect-impossible"],
        ["oneway", "certify", "--family", "k", "--k", "4"],
        ["oneway", "prop1", *EVEN4],
        ["oneway", "randomized", "--family", "even", "--d", "16", "--order", "2,0,1", "--trials", "2000", "--seed", "3"],
        ["twoway", "run", "--family", "mod3", "--d", "5", "--trials", "2000", "--seed", "7"],
        ["lattice", "sweep", "--limit", "40"],
        ["simulate", "--family", "mod3", "--d", "5", "--trials", "2000", "--seed", "42"],
        ["simulate", "--protocol", "randomized", "--family", "mod3", "--d", "8", "--trials", "2000", "--seed", "2"],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_reports_follow_the_readme_schema(argv, capsys, tmp_path):
    top, manifest, verdict, data = readme_schema()
    target = tmp_path / "report.json"
    code, out, _ = run(argv + ["--json", str(target)], capsys)
    doc = json.loads(target.read_text())
    assert_keys(doc, top)
    assert_keys(doc["manifest"], manifest)
    assert_keys(doc["data"], data[doc["manifest"]["command"]])
    for v in doc["verdicts"]:
        assert_keys(v, verdict)
        signed = v["value"] - v["threshold"] if v["relation"] == ">=" else v["threshold"] - v["value"]
        assert v["relation"] in ("<=", ">=") and v["margin"] == signed
        assert (v["margin"] >= 0) is v["pass"]
        # the text line shows the record's own numbers and verdict
        line = f"{v['value']!r} {v['relation']} {v['threshold']!r}, margin {v['margin']!r}: {'PASS' if v['pass'] else 'FAIL'}"
        assert printed(out, v["name"]) == line + ("" if v["gates"] else " (not gating)")
    assert doc["pass"] is all(v["pass"] for v in doc["verdicts"] if v["gates"])
    assert code == (0 if doc["pass"] else 1)


def test_family_report_carries_genericity_distances(capsys, tmp_path):
    target = tmp_path / "family.json"
    code, _, _ = run(["family", "build", *EVEN4, "--json", str(target)], capsys)
    assert code == 0
    assert json.loads(target.read_text())["data"]["genericity"] == even_spec(4).genericity()
    # omega a turn fraction of 1e-8 from 1 is 2 pi 1e-8 off the real axis: the
    # set is built and its distance reported, and the even two-way
    # construction alone refuses it, naming the distance
    near = [*EVEN4, "--omega-frac", "1e-8"]
    code, _, _ = run(["family", "build", *near, "--json", str(target)], capsys)
    assert code == 0
    assert abs(json.loads(target.read_text())["data"]["genericity"]["omega_nonreal"] - 6.283e-08) <= 1e-11
    code, _, err = run(["twoway", "run", *near], capsys)
    assert code == 2 and "(omega_nonreal)" in err and "6.283e-08, is within the margin 1e-06" in err
