import json

import pytest

from locc_lab import cli, oneway
from locc_lab.cli import main


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_family_build_even(capsys):
    code, out, _ = run(["family", "build", "--family", "even", "--d", "4"], capsys)
    assert code == 0
    assert "PASS" in out


def test_family_check_degenerate_needs_flag(capsys):
    code, _, err = run(
        ["family", "check", "--family", "even", "--d", "4", "--omega-frac", "0", "--gamma-frac", "0"],
        capsys,
    )
    assert code == 2
    assert "degenerate" in err
    code, out, _ = run(
        [
            "family", "check", "--family", "even", "--d", "4",
            "--omega-frac", "0", "--gamma-frac", "0", "--allow-degenerate",
        ],
        capsys,
    )
    assert code == 0


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
    assert abs(doc["floor"] - 1 / 15) <= 1e-12
    ppt = doc["ppt"]
    assert ppt["tol"] == 1e-9
    assert ppt["margin"] == min(ppt["min_pt_eigenvalues"]) - (ppt["bound"] - ppt["tol"])
    assert 0 <= ppt["margin"] <= 2e-9  # the mod-3 family sits on the floor
    assert "margin above floor - tol" in out
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
    ppt = json.loads(first)["ppt"]
    assert (ppt["blocks"], ppt["distinct_blocks"], ppt["largest_block"]) == (93, 9, 12)
    assert "PT blocks                    93 (9 distinct, largest 12)" in out


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
    assert doc["certificate"]["conclusion"] == "OneWayImpossible"
    assert doc["certificate"]["forced_pair"] == [0, 1]
    assert "forced pair            (0, 1)" in out


def test_oneway_certify_degenerate_fails_expectation(capsys):
    code, out, _ = run(
        [
            "oneway", "certify", "--family", "even", "--d", "4",
            "--omega-frac", "0", "--gamma-frac", "0", "--allow-degenerate",
            "--expect-impossible",
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
    assert abs(doc["exact_error"] - 1 / 6) <= 1e-9
    assert abs(doc["bound"] - 1 / 6) <= 1e-12


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


def test_oneway_randomized_error_not_negative(capsys):
    # 1 - sum |u_2[a, a]|^2 / d rounds below 0 on this set unless clamped
    code, out, _ = run(
        ["oneway", "randomized", "--family", "k", "--k", "3", "--r", "100", "--indices", "0,0;1,1;2,2"], capsys
    )
    assert code == 0
    assert "exact error    0.00000000" in out


def test_twoway_run_even4(capsys, tmp_path):
    out_csv = tmp_path / "conf.csv"
    code, out, _ = run(
        ["twoway", "run", "--family", "even", "--d", "4", "--csv", str(out_csv)],
        capsys,
    )
    assert code == 0
    assert "success 1.0" in out
    lines = out_csv.read_text().strip().split("\n")
    assert lines[0] == "prepared,decided,probability"
    assert len(lines) == 10


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
    assert doc["family"]["r"] == 1 and doc["family"]["d"] == 4 + 3
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
    assert "25 triples" in out


def test_lattice_sweep_names_a_two_way_tree(capsys, tmp_path, monkeypatch):
    # an exact tree that is not one-way fails with its reason in the report
    monkeypatch.setattr(cli, "is_one_way", lambda tree: False)
    target = tmp_path / "lattice.json"
    code, out, _ = run(["lattice", "sweep", "--limit", "2", "--json", str(target)], capsys)
    assert code == 1 and "FAIL" in out
    failures = json.loads(target.read_text())["failures"]
    assert len(failures) == 2
    assert all(f["one_way"] is False and f["deviation"] <= 1e-15 for f in failures)


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
    assert out_csv.read_text().startswith("prepared,decided,count,rate")


def test_tolerance_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("LOCC_LAB_TOL", "1e-3")
    code, _, _ = run(["twoway", "run", "--family", "even", "--d", "4"], capsys)
    assert code == 0


def test_non_finite_phase_fractions_exit_2(capsys):
    for flag in ("--omega-frac", "--gamma-frac"):
        for value in ("nan", "inf", "-inf"):
            for extra in ([], ["--allow-degenerate"]):
                code, _, err = run(
                    ["oneway", "certify", "--family", "even", "--d", "4", f"{flag}={value}"] + extra,
                    capsys,
                )
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


def test_bad_tolerance_env_exit_2(capsys, monkeypatch):
    for value in ("nan", "inf", "-1"):
        monkeypatch.setenv("LOCC_LAB_TOL", value)
        code, _, err = run(["ppt", "verify", "--family", "even", "--d", "4"], capsys)
        assert code == 2
        assert "LOCC_LAB_TOL must be a finite nonnegative number" in err
    # an explicit flag still takes precedence over the environment
    code, _, _ = run(["ppt", "verify", "--family", "even", "--d", "4", "--tol", "1e-9"], capsys)
    assert code == 0


EVEN4 = ["--family", "even", "--d", "4"]


@pytest.mark.parametrize(
    "argv",
    [
        ["family", "build", *EVEN4, "--csv", "CSV"],
        ["oneway", "certify", *EVEN4, "--csv", "CSV"],
        ["oneway", "randomized", *EVEN4, "--csv", "CSV"],
        ["lattice", "sweep", "--limit", "1", "--csv", "CSV"],
        ["oneway", "certify", *EVEN4, "--tol", "nan"],
        ["simulate", *EVEN4, "--tol", "-5"],
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


def test_oneway_randomized_sets_up_the_frame_once(capsys, monkeypatch):
    # u_1 u_0^dag is monomial but not diagonal here, so every frame set-up
    # reads its cycles once
    calls = []
    read_cycles = oneway.diagonalize_monomial
    monkeypatch.setattr(oneway, "diagonalize_monomial", lambda u: calls.append(1) or read_cycles(u))
    code, _, _ = run(
        ["oneway", "randomized", "--family", "even", "--d", "16", "--order", "1,0,2", "--trials", "200", "--seed", "3"], capsys
    )
    assert code == 0
    assert len(calls) == 1


def test_simulate_and_twoway_read_allow_degenerate(capsys):
    degenerate = ["--family", "even", "--d", "4", "--omega-frac", "0", "--gamma-frac", "0", "--allow-degenerate"]
    code, out, _ = run(["simulate", "--protocol", "randomized", *degenerate, "--trials", "500", "--seed", "1"], capsys)
    assert code == 0 and "PASS" in out
    # the set is built; the two-way construction itself refuses the phases
    code, _, err = run(["twoway", "run", *degenerate], capsys)
    assert code == 2
    assert "two-way construction needs generic phases" in err
