import json

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
    assert doc["manifest"]["command"] == "ppt verify"
    assert doc["manifest"]["spec"]["kind"] == "mod3"
    assert doc["manifest"]["tool_version"]


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


def test_twoway_run_even4(capsys, tmp_path):
    out_csv = tmp_path / "conf.csv"
    code, out, _ = run(
        ["twoway", "run", "--family", "even", "--d", "4", "--exact", "--csv", str(out_csv)],
        capsys,
    )
    assert code == 0
    assert "success 1.0" in out
    lines = out_csv.read_text().strip().split("\n")
    assert lines[0] == "prepared,decided,probability"
    assert len(lines) == 10


def test_twoway_rejects_k_family(capsys):
    code, _, err = run(["twoway", "run", "--family", "k", "--k", "4"], capsys)
    assert code == 2
    assert "two-way" in err


def test_lattice_sweep_limited(capsys):
    code, out, _ = run(["lattice", "sweep", "--limit", "25"], capsys)
    assert code == 0
    assert "25 triples" in out


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
