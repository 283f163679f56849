import argparse
import inspect
import json

import pytest

from alphaindex import cli, harness
from alphaindex.cli import main
from alphaindex.enumeration import canonical_form
from alphaindex.families import complete_bipartite, cycle
from alphaindex.graphs import emit_graph6
from alphaindex.spectral import ConvergenceError, SpectralError


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_rho_family(capsys):
    code, out = run_cli(capsys, "rho", "--family", "SK2,4", "--alpha", "0.5")
    assert code == 0
    assert "2.944484700" in out
    assert "perron" in out


def test_rho_json(capsys):
    code, out = run_cli(capsys, "rho", "--family", "K2,3", "--alpha", "0.5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload[0]["rho"] - 2.5) < 1e-11
    assert payload[0]["alpha"] == "0.5"


def test_rho_graph6_literal(capsys):
    code, out = run_cli(capsys, "rho", "--graph6", "Cl", "--alpha", "0.5")
    assert code == 0 and "rho=2" in out


def test_bounds_sandwich(capsys):
    code, out = run_cli(capsys, "bounds", "--family", "K2,3", "--alpha", "0.5", "--format", "json")
    assert code == 0
    rec = json.loads(out)[0]
    assert rec["lower"] <= rec["rho"] <= rec["upper"] + 1e-12


def test_enumerate_order5_min2c(capsys):
    code, out = run_cli(capsys, "enumerate", "--order", "5", "--filter", "min2c")
    assert code == 0
    lines = out.split()
    assert sorted(lines) == sorted(
        [canonical_form(cycle(5)), canonical_form(complete_bipartite(2, 3))]
    )


def test_enumerate_size_json(capsys):
    code, out = run_cli(capsys, "enumerate", "--size", "8", "--filter", "min2c", "--format", "json")
    assert code == 0
    assert len(json.loads(out)) == 4


def test_enumerate_size_needs_min2c(capsys):
    with pytest.raises(SystemExit) as err:
        run_cli(capsys, "enumerate", "--size", "8", "--filter", "all")
    assert err.value.code == 2


def test_verify_theorem_order_json(capsys):
    code, out = run_cli(
        capsys, "verify", "theorem1.3", "--n", "5..6", "--alpha", "0.5,0.75",
        "--format", "json", "--jobs", "1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["target"] == "theorem1.3"
    assert payload["passed"] is True
    assert payload["cases"] == 4
    assert payload["runtime_ms"] == 0  # timings off by default


def test_verify_output_deterministic(capsys):
    args = ("verify", "theorem1.3", "--n", "5", "--alpha", "0.5,0.9", "--format", "json", "--jobs", "1")
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    assert first == second


def test_verify_lemmas_text(capsys):
    code, out = run_cli(
        capsys, "verify", "lemmas", "--targets", "lemma9,lemma10",
        "--alpha", "0.5,0.75", "--format", "text", "--jobs", "1",
    )
    assert code == 0
    assert "lemma9: PASS" in out and "lemma10: PASS" in out


def test_verify_spectral_lemmas_json(capsys):
    code, out = run_cli(
        capsys, "verify", "lemmas", "--targets", "lemma1,lemma2,lemma9,lemma10",
        "--n-max", "5", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert [r["target"] for r in payload] == ["lemma1", "lemma2", "lemma9", "lemma10"]
    assert all(r["passed"] for r in payload)
    assert all(c["fallbacks"] == 0 for r in payload for c in r["case_results"])


@pytest.mark.parametrize("target,n_max", [
    ("claim-order", "4"), ("lemma3", "3"), ("lemma4", "3"), ("lemma5", "3"),
    ("lemma1", "1"), ("lemma2", "1"), ("lemma6", "0"),
])
def test_verify_lemmas_without_cases_is_usage_error(capsys, target, n_max):
    with pytest.raises(SystemExit) as err:
        main(["verify", "lemmas", "--targets", target, "--n-max", n_max])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{target} has no cases" in captured.err


@pytest.mark.parametrize("cases", ["0", "-3"])
def test_verify_lemma7_without_rotation_cases_is_usage_error(capsys, cases):
    with pytest.raises(SystemExit) as err:
        main(["verify", "lemmas", "--targets", "lemma7", "--rotation-cases", cases])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"lemma7 needs at least one rotation case, got {cases}" in captured.err


@pytest.mark.parametrize("target", ["theorem1.3", "lemmas", "theorem1.4"])
def test_verify_allow_slow_outside_theorem_order_is_usage_error(capsys, target):
    with pytest.raises(SystemExit) as err:
        main(["verify", target, "--n-max", "9", "--m", "6", "--allow-slow", "--jobs", "1"])
    assert err.value.code == 2
    assert "unrecognized arguments: --allow-slow" in capsys.readouterr().err


@pytest.mark.parametrize("argv,flags", [
    (["theorem1.3", "--n", "5", "--m", "99", "--targets", "bogus", "--rotation-cases", "-5"],
     "--m, --targets, --rotation-cases"),
    (["theorem1.4", "--m", "6", "--n", "2"], "--n"),
    (["theorem1.4", "--m", "6", "--n-max", "5", "--seed", "3"], "--n-max, --seed"),
    (["lemmas", "--targets", "lemma9", "--m", "99"], "--m"),
])
def test_verify_flag_of_another_target_is_usage_error(capsys, argv, flags):
    with pytest.raises(SystemExit) as err:
        main(["verify", *argv])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"verify {argv[0]} does not take {flags}" in captured.err


@pytest.mark.parametrize("argv,message", [
    (["lemmas", "--targets", "lemma9", "--seed", "-1", "--rotation-cases", "0",
      "--n-max", "99", "--alpha", "0.5"],
     "verify lemmas does not take --n-max, --rotation-cases, --seed"),
    (["lemmas", "--targets", "lemma6", "--alpha", "0.5"], "verify lemmas does not take --alpha"),
    (["theorem1.3", "--n", "5", "--alpha", "0.5", "--jobs", "0"], "--jobs: invalid choice: 0"),
    (["theorem1.3", "--n", "5", "--alpha", "0.5", "--jobs", "2"], "--jobs: invalid choice: 2"),
    (["theorem1.3", "--n", "5", "--alpha", "0.5", "--jobs", "-3"], "--jobs: invalid choice: -3"),
    (["lemmas", "--targets", "lemma9", "--jobs", "2"], "--jobs: invalid choice: 2"),
], ids=["lemma9-unread", "lemma6-alpha", "jobs-0", "jobs-2", "jobs--3", "lemmas-jobs-2"])
def test_verify_flag_no_chosen_target_reads_is_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as err:
        main(["verify", *argv])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_verify_flags_match_harness_signatures():
    parser = cli.build_parser()
    campaign = parser.parse_args(["verify", "lemmas"]).campaign
    reads = harness.lemma_keywords().union(
        inspect.signature(harness.verify_theorem_order).parameters,
        inspect.signature(harness.verify_theorem_size).parameters,
    )
    # Every keyword a builder or theorem entry point reads is settable ...
    assert reads <= campaign.keys()
    # ... and every campaign flag is read by some target.
    assert campaign.keys() <= reads
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    verify = subparsers.choices["verify"]
    flags = {a.dest for a in verify._actions if a.option_strings}
    assert flags - {"help", "format", "out", "timings", "jobs"} == campaign.keys()


def test_enumerate_allow_slow_is_unrecognized(capsys):
    with pytest.raises(SystemExit) as err:
        main(["enumerate", "--order", "9", "--allow-slow"])
    assert err.value.code == 2
    assert "unrecognized arguments: --allow-slow" in capsys.readouterr().err


def test_verify_lemma9_alpha_one_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "lemmas", "--targets", "lemma9", "--alpha", "1.0"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "alpha must lie in [0, 1)" in captured.err


def test_verify_fact3_exits_nonzero(capsys):
    code, out = run_cli(capsys, "verify", "lemmas", "--targets", "fact3", "--format", "text")
    assert code == 1
    assert "fact3: FAIL" in out


def test_verify_csv(capsys):
    code, out = run_cli(
        capsys, "verify", "theorem1.4", "--m", "6", "--alpha", "0.5", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("target,case,alpha")
    assert len(lines) == 2


def test_certify_signs(capsys):
    code, out = run_cli(capsys, "certify", "signs", "--poly", "f,g")
    assert code == 0
    assert "f: PASS" in out and "g: PASS" in out


def test_certify_identity_f_passes_g_fails(capsys):
    code, out = run_cli(capsys, "certify", "identity", "--poly", "f",
                        "--m-stop", "25")
    assert code == 0 and "PASS" in out
    code, out = run_cli(capsys, "certify", "identity", "--poly", "g",
                        "--m-stop", "25")
    assert code == 1 and "FAIL" in out


@pytest.mark.parametrize("poly", ["h", "f,h"])
def test_certify_identity_rejects_unknown_poly(capsys, poly):
    with pytest.raises(SystemExit) as err:
        main(["certify", "identity", "--poly", poly, "--m-stop", "25"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown identity polynomial 'h'" in captured.err


def test_certify_columns(capsys):
    code, out = run_cli(
        capsys, "certify", "columns", "--family", "K2,5", "--alpha", "0.6",
        "--variant", "order", "--format", "json",
    )
    assert code == 0
    rec = json.loads(out)[0]
    assert max(rec["column_sums"]) <= 1e-12


def test_convert_stdin(capsys, monkeypatch, tmp_path):
    src = tmp_path / "in.g6"
    src.write_text("Cl\nBw\nCl\n")
    code, out = run_cli(capsys, "convert", "--in", str(src), "--filter", "2conn")
    assert code == 0
    assert out.split() == ["Cl", "Bw"]


def test_convert_canonical(capsys, tmp_path):
    src = tmp_path / "in.g6"
    src.write_text("Cl\n")
    code, out = run_cli(capsys, "convert", "--in", str(src), "--canonical")
    assert code == 0
    assert out.strip() == canonical_form(cycle(4))


def test_convert_canonical_up_to_order_20(capsys, tmp_path):
    src = tmp_path / "in.g6"
    shifted = cycle(18).relabel(tuple((v + 5) % 18 for v in range(18)))
    src.write_text("".join(emit_graph6(g) + "\n" for g in (cycle(18), shifted, cycle(20))))
    code, out = run_cli(capsys, "convert", "--in", str(src), "--canonical")
    assert code == 0
    assert out.split() == [canonical_form(cycle(18)), canonical_form(cycle(20))]
    src.write_text(emit_graph6(cycle(21)) + "\n")
    with pytest.raises(SystemExit) as err:
        main(["convert", "--in", str(src), "--canonical"])
    assert err.value.code == 2


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["rho", "--family", "NOPE", "--alpha", "0.5"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["enumerate"])
    assert err.value.code == 2


def test_internal_numerical_failure_exit_3(capsys, monkeypatch):
    def stalled(*args, **kwargs):
        raise ConvergenceError(1e-3, 10)

    monkeypatch.setattr(cli, "alpha_index", stalled)
    with pytest.raises(SystemExit) as err:
        main(["rho", "--family", "K2,3", "--alpha", "0.5"])
    assert err.value.code == 3
    assert capsys.readouterr().err.startswith("internal error: power iteration stalled")

    def unconfirmed(*args, **kwargs):
        raise SpectralError("batched rho disagrees with power iteration")

    monkeypatch.setattr(harness, "alpha_indices", unconfirmed)
    with pytest.raises(SystemExit) as err:
        main(["verify", "theorem1.3", "--n", "5", "--alpha", "0.5", "--jobs", "1"])
    assert err.value.code == 3
    assert "internal error: batched rho" in capsys.readouterr().err


@pytest.mark.parametrize(
    "sub", ["rho", "bounds", "enumerate", "certify", "verify", "convert"]
)
def test_every_subcommand_has_help(capsys, sub):
    with pytest.raises(SystemExit) as err:
        main([sub, "--help"])
    assert err.value.code == 0
    assert "usage" in capsys.readouterr().out


def test_out_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _ = run_cli(
        capsys, "verify", "theorem1.3", "--n", "5", "--alpha", "0.5",
        "--format", "json", "--out", str(out_path),
    )
    assert code == 0
    assert json.loads(out_path.read_text())["passed"] is True


def test_module_entry_point_subprocess():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "alphaindex", "rho", "--family", "K2,3", "--alpha", "0.5"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "rho=2.5" in proc.stdout

    proc = subprocess.run(
        [sys.executable, "-m", "alphaindex", "verify", "lemmas", "--targets", "fact3"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "fact3: FAIL" in proc.stdout
