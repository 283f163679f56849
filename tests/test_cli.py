import argparse
import gc
import inspect
import json
import random
import types

import pytest

from alphaindex import cli, enumeration, harness
from alphaindex.cli import main
from alphaindex.connectivity import is_minimally_two_connected_by_deletion, is_two_connected
from alphaindex.enumeration import canonical_form
from alphaindex.families import complete_bipartite, cycle
from alphaindex.graphs import Graph, emit_graph6, parse_graph6
from alphaindex.spectral import ConvergenceError, SpectralError

from conftest import (
    MISSED_MATCHES,
    SHARED_SIGNATURE_CLASSES_12,
    circulant,
    disjoint_union,
    ear_graph,
    random_graph,
    relabelled,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_rho_family(capsys):
    code, out = run_cli(capsys, "rho", "--family", "SK2,4", "--alpha", "0.5")
    assert code == 0
    assert "2.944484700" in out
    assert "perron" in out


def test_rho_family_label_is_normalised(capsys):
    code, out = run_cli(capsys, "rho", "--family", " K02,3", "--alpha", "0.5", "--format", "json")
    assert code == 0
    assert json.loads(out)[0]["input"] == "K2,3"


def test_rho_json(capsys):
    code, out = run_cli(capsys, "rho", "--family", "K2,3", "--alpha", "0.5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload[0]["rho"] - 2.5) < 1e-11
    assert payload[0]["alpha"] == "0.5"


def test_rho_graph6_literal(capsys):
    code, out = run_cli(capsys, "rho", "--graph6", "Cl", "--alpha", "0.5")
    assert code == 0 and "rho=2" in out


def test_rho_solves_every_input_in_one_stacked_call(capsys, monkeypatch, tmp_path):
    inputs = ["Cr", "DqK", "FGEzo"]  # orders 4, 5 and 7
    singles = [run_cli(capsys, "rho", "--graph6", g6, "--alpha", "0.5") for g6 in inputs]
    assert [code for code, _ in singles] == [0, 0, 0]
    real = cli.alpha_indices
    calls = []
    monkeypatch.setattr(cli, "alpha_indices", lambda cases: calls.append(len(cases)) or real(cases))
    src = tmp_path / "in.g6"
    src.write_text("".join(g6 + "\n" for g6 in inputs))
    code, out = run_cli(capsys, "rho", "--in", str(src), "--alpha", "0.5", "--format", "text")
    assert code == 0 and calls == [3]
    assert out == "".join(out for _, out in singles)


def test_rho_reports_the_first_bad_input(capsys, tmp_path):
    # Alpha is checked before connectivity, one input after another, and
    # nothing is printed before the solve.
    src = tmp_path / "in.g6"
    src.write_text("Cr\nC`\nDqK\n")  # C` is disconnected
    for alpha, message in (("1.0", "alpha must lie in [0, 1)"), ("0.5", "needs a connected graph")):
        with pytest.raises(SystemExit) as err:
            main(["rho", "--in", str(src), "--alpha", alpha])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err


def test_bounds_sandwich(capsys):
    code, out = run_cli(capsys, "bounds", "--family", "K2,3", "--alpha", "0.5", "--format", "json")
    assert code == 0
    rec = json.loads(out)[0]
    assert rec["lower"] <= rec["rho"] <= rec["upper"] + 1e-12


def test_bounds_solves_every_input_in_one_stacked_call(capsys, monkeypatch, tmp_path):
    inputs = ["Cr", "DqK", "FGEzo"]  # orders 4, 5 and 7
    singles = [run_cli(capsys, "bounds", "--graph6", g6, "--alpha", "0.5") for g6 in inputs]
    assert [code for code, _ in singles] == [0, 0, 0]
    real = cli.alpha_indices
    calls = []
    monkeypatch.setattr(cli, "alpha_indices", lambda cases: calls.append(len(cases)) or real(cases))
    src = tmp_path / "in.g6"
    src.write_text("".join(g6 + "\n" for g6 in inputs))
    code, out = run_cli(capsys, "bounds", "--in", str(src), "--alpha", "0.5")
    assert code == 0 and calls == [3]
    assert out == "".join(out for _, out in singles)


def test_bounds_reports_the_alpha_error_before_a_later_disconnected_input(capsys, tmp_path):
    # The lower bound's own alpha check runs for every input before the
    # solve, so its message wins over the solve's connectivity test and over
    # the solve's own alpha check.
    src = tmp_path / "in.g6"
    src.write_text("Cr\nC`\nDqK\n")  # C` is disconnected
    for alpha, message in (("1.0", "alpha must lie in [0, 1), got 1.0"),
                           ("0.5", "needs a connected graph")):
        with pytest.raises(SystemExit) as err:
            main(["bounds", "--in", str(src), "--alpha", alpha])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err


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


def test_verify_leaves_no_package_function_in_a_garbage_cycle(capsys):
    # A closure that refers to itself, or a lambda that argparse keeps in
    # its parser's cycles, would stay alive until the cyclic collector
    # runs; DEBUG_SAVEALL keeps what a collection finds so it can be named.
    enabled, debug = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert main(["verify", "theorem1.4"]) == 0
        gc.collect()
        held = sorted(
            f"{obj.__module__}.{obj.__qualname__}" for obj in gc.garbage
            if isinstance(obj, types.FunctionType)
            and (obj.__module__ or "").startswith("alphaindex")
        )
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    capsys.readouterr()
    assert held == []


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


@pytest.mark.parametrize("argv,message", [
    (["theorem1.3", "--n", "5..1000000000"], "--n 5..1000000000 leaves 1..13"),
    (["theorem1.3", "--n=-1000000000..5"], "--n -1000000000..5 leaves 1..13"),
    (["theorem1.3", "--n", "13..14"], "--n 13..14 leaves 1..13"),
    (["theorem1.4", "--m", "6,16..17"], "--m 16..17 leaves 1..16"),
    (["lemmas", "--targets", "lemma3", "--n-max", "1000000000"],
     "lemma3 takes n_max up to 13, got n_max 1000000000"),
    (["lemmas", "--targets", "lemma6", "--n-max", "1000000000"],
     "lemma6 takes n_max up to 9"),
    (["lemmas", "--targets", "lemma9,lemma1", "--n-max", "10"],
     "lemma1 takes n_max up to 9"),
    (["lemmas", "--targets", "lemma2", "--n-max", "10"], "lemma2 takes n_max up to 9"),
    (["lemmas", "--targets", "lemma4", "--n-max", "14"], "lemma4 takes n_max up to 13"),
    (["lemmas", "--targets", "lemma5", "--n-max", "14"], "lemma5 takes n_max up to 13"),
    (["lemmas", "--targets", "claim-order", "--n-max", "14"],
     "claim-order takes n_max up to 13"),
    (["lemmas", "--targets", "lemma7", "--n-max", "10"], "lemma7 takes n_max up to 9"),
    (["lemmas", "--targets", "lemma7", "--n-max", "1000000000", "--rotation-cases", "1"],
     "lemma7 takes n_max up to 9, got n_max 1000000000"),
])
def test_verify_range_past_generator_cap_is_usage_error(capsys, monkeypatch, argv, message):
    def no_work(*args, **kwargs):
        raise AssertionError("generation started before the cap check")

    monkeypatch.setattr(harness, "graphs_by_order", no_work)
    monkeypatch.setattr(harness, "graphs_by_size", no_work)
    monkeypatch.setattr(harness, "sample_connected_graph", no_work)
    with pytest.raises(SystemExit) as err:
        main(["verify", *argv])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


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


def test_convert_format_is_unrecognized(capsys):
    with pytest.raises(SystemExit) as err:
        main(["convert", "--format", "graph6"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --format graph6" in captured.err


def test_verify_empty_targets_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "lemmas", "--targets", ""])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no lemma targets given" in captured.err


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


def test_certify_signs_json(capsys):
    code, out = run_cli(capsys, "certify", "signs", "--poly", "f", "--m-stop", "11",
                        "--alpha-stop", "0.75", "--alpha-step", "0.25", "--format", "json")
    assert code == 0
    [rec] = json.loads(out)
    assert set(rec) == {"polynomial", "m_values", "alphas", "min_abs_value", "violations", "passed"}
    assert rec["polynomial"] == "f" and rec["m_values"] == [9, 11]
    assert rec["alphas"] == ["0.50", "0.75"]
    assert rec["violations"] == [] and rec["passed"] is True


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


@pytest.mark.parametrize("mode", ["signs", "identity"])
@pytest.mark.parametrize("flags,message", [
    (["--alpha-step", "0"], "step must be positive"),
    (["--alpha-step", "-0.01"], "step must be positive"),
    (["--alpha-step", "abc"], "needs finite decimals"),
    (["--m-start", "12", "--m-stop", "10"], "empty grid"),
    (["--alpha-step", "1e-9"], "more than 100000 points"),
    (["--alpha-step", "1e999999999"], "overflows decimal arithmetic"),
    (["--alpha-step", "1e-999999999"], "overflows decimal arithmetic"),
])
def test_certify_bad_grid_is_usage_error(capsys, mode, flags, message):
    with pytest.raises(SystemExit) as err:
        main(["certify", mode, *flags])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_certify_columns(capsys):
    code, out = run_cli(
        capsys, "certify", "columns", "--family", "K2,5", "--alpha", "0.6",
        "--variant", "order", "--format", "json",
    )
    assert code == 0
    rec = json.loads(out)[0]
    assert max(rec["column_sums"]) <= 1e-12


@pytest.mark.parametrize("argv", [
    ["certify", "signs", "--variant", "size"],
    ["certify", "identity", "--family", "K2,3"],
    ["certify", "signs", "--variant", "size", "--alpha", "0.3", "--family", "K2,3"],
    ["certify", "columns", "--family", "K2,5", "--poly", "f"],
])
def test_certify_rejects_flags_of_other_modes(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("sub", ["rho", "bounds"])
def test_graph_inputs_are_mutually_exclusive(capsys, sub, tmp_path):
    src = tmp_path / "in.g6"
    src.write_text("DFw\n")
    for inputs in (["--family", "K2,3", "--graph6", "DFw"], ["--graph6", "DFw", "--in", str(src)]):
        with pytest.raises(SystemExit) as err:
            main([sub, *inputs, "--alpha", "0.5"])
        assert err.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err


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


def _counted_searches(monkeypatch) -> list:
    """Record each full canonical search ``enumeration`` runs."""
    calls = []
    search = enumeration._canonical_order

    def counted(*args):
        calls.append(None)
        return search(*args)

    monkeypatch.setattr(enumeration, "_canonical_order", counted)
    return calls


def test_convert_canonical_labels_each_class_once(capsys, monkeypatch, tmp_path):
    rng = random.Random(21)
    graphs = [cycle(7), complete_bipartite(2, 4), complete_bipartite(3, 3)]
    lines = [emit_graph6(relabelled(rng, g)) for _ in range(3) for g in graphs]
    src = tmp_path / "in.g6"
    src.write_text("".join(line + "\n" for line in lines))
    calls = _counted_searches(monkeypatch)
    code, out = run_cli(capsys, "convert", "--in", str(src), "--filter", "min2c", "--canonical")
    assert code == 0
    accepted = [line for line in lines if is_minimally_two_connected_by_deletion(parse_graph6(line))]
    assert len(accepted) == 6  # K_{3,3} has chorded cycles
    assert len(calls) == 2  # the repeats match their class's minimum leaf
    assert out.split() == [canonical_form(parse_graph6(line)) for line in accepted[:2]]


def _first_occurrences(lines, keep, canonical):
    """The full-search reference: each class's first line that ``keep``
    accepts, as its canonical form or as given."""
    seen, out = set(), []
    for line in lines:
        g = parse_graph6(line)
        if keep(g):
            form = canonical_form(g)
            if form not in seen:
                seen.add(form)
                out.append(form if canonical else line)
    return "".join(line + "\n" for line in out)


@pytest.mark.parametrize("name,keep", [
    ("all", lambda g: True),
    ("2conn", is_two_connected),
    ("min2c", is_minimally_two_connected_by_deletion),
])
@pytest.mark.parametrize("canonical", [False, True])
def test_convert_matches_the_full_search_reference(capsys, tmp_path, name, keep, canonical):
    rng = random.Random(1909)
    pool = [ear_graph(rng, rng.randint(9, 13)) for _ in range(30)]
    lines = [emit_graph6(relabelled(rng, rng.choice(pool))) for _ in range(150)]
    lines += [emit_graph6(random_graph(rng, rng.randint(9, 13), 0.4)) for _ in range(50)]
    lines += [emit_graph6(relabelled(rng, parse_graph6(form)))
              for _ in range(3) for bucket in SHARED_SIGNATURE_CLASSES_12
              for form in bucket]
    rng.shuffle(lines)
    lines += [emit_graph6(relabelled(rng, parse_graph6("HC`Q`Wi"))), *MISSED_MATCHES]
    src = tmp_path / "in.g6"
    src.write_text("".join(line + "\n" for line in lines))
    argv = ["convert", "--in", str(src), "--filter", name] + ["--canonical"] * canonical
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert out == _first_occurrences(lines, keep, canonical)


K4 = Graph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])


@pytest.mark.parametrize("pair", [
    (cycle(16), disjoint_union(cycle(8), cycle(8))),
    (disjoint_union(K4, K4, K4, K4), circulant(16, (1, 8))),  # cubic, connected
])
@pytest.mark.parametrize("swap", [False, True])
def test_convert_symmetric_collisions_cost_one_failed_match(capsys, monkeypatch, tmp_path,
                                                            pair, swap):
    first, second = pair[::-1] if swap else pair
    rng = random.Random(16)
    lines = [emit_graph6(relabelled(rng, g)) for g in [first] * 4 + [second]]
    src = tmp_path / "in.g6"
    src.write_text("".join(line + "\n" for line in lines))
    calls = _counted_searches(monkeypatch)
    refinements, matches = [], []
    refine, match = enumeration._refine, enumeration._matches

    def counted_refine(*args):
        refinements.append(None)
        return refine(*args)

    def counted_match(*args):
        before = len(refinements)
        found = match(*args)
        matches.append((found, len(refinements) - before))
        return found

    monkeypatch.setattr(enumeration, "_refine", counted_refine)
    monkeypatch.setattr(enumeration, "_matches", counted_match)
    code, out = run_cli(capsys, "convert", "--in", str(src), "--filter", "all", "--canonical")
    assert code == 0
    classes, shared = 2, 1  # both graphs share one signature
    assert len(calls) <= classes + shared
    assert [found for found, _ in matches] == [True, True, True, False]
    # A committed branch is never left, so a match costs at most n |cell|.
    assert all(cost <= 16 * 16 for _, cost in matches)
    monkeypatch.undo()
    assert out == _first_occurrences(lines, lambda g: True, True)


def test_convert_searches_once_per_printed_line(capsys, monkeypatch, tmp_path):
    rng = random.Random(2025)
    pool = [ear_graph(rng, rng.randint(9, 13)) for _ in range(40)]
    lines = [emit_graph6(relabelled(rng, rng.choice(pool))) for _ in range(400)]
    src = tmp_path / "in.g6"
    src.write_text("".join(line + "\n" for line in lines))
    calls = _counted_searches(monkeypatch)
    code, out = run_cli(capsys, "convert", "--in", str(src), "--filter", "min2c", "--canonical")
    assert code == 0
    printed = out.split()
    assert 0 < 5 * len(printed) < len(lines)
    assert len(calls) == len(printed)
    monkeypatch.undo()
    assert out == _first_occurrences(lines, is_minimally_two_connected_by_deletion, True)


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["rho", "--family", "NOPE", "--alpha", "0.5"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["enumerate"])
    assert err.value.code == 2


@pytest.mark.parametrize("argv", [
    ["rho", "--family", "C100000000", "--alpha", "0.5"],
    ["bounds", "--family", "K100000000,3", "--alpha", "0.5"],
    ["certify", "columns", "--family", "K2,100000000", "--alpha", "0.6"],
])
def test_family_past_the_order_cap_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "families stop at 1000" in captured.err


@pytest.mark.parametrize("argv", [
    ["rho", "--in", "{missing}", "--alpha", "0.5"],
    ["convert", "--in", "{missing}"],
    ["rho", "--in", "{dir}", "--alpha", "0.5"],
    ["enumerate", "--order", "4", "--out", "{missing}/x"],
])
def test_file_errors_are_usage_errors(capsys, tmp_path, argv):
    paths = {"missing": tmp_path / "missing", "dir": tmp_path}
    with pytest.raises(SystemExit) as err:
        main([arg.format(**paths) for arg in argv])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: [Errno")


def test_internal_numerical_failure_exit_3(capsys, monkeypatch):
    def stalled(*args, **kwargs):
        raise ConvergenceError(1e-3, 10)

    monkeypatch.setattr(cli, "alpha_indices", stalled)
    with pytest.raises(SystemExit) as err:
        main(["rho", "--family", "K2,3", "--alpha", "0.5"])
    assert err.value.code == 3
    assert capsys.readouterr().err.startswith("internal error: power iteration stalled")

    def unconfirmed(cases):
        raise SpectralError("batched rho disagrees with power iteration")

    monkeypatch.setattr(harness, "perron_pairs", unconfirmed)
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


def _outcome(capsys, argv):
    """stdout, stderr and exit code of ``main(argv)``."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return out, err, code


@pytest.mark.parametrize("columns", ["80", "50"])
@pytest.mark.parametrize("argv", [
    ["verify", "theorem1.3", "--bogus"],
    ["verify", "theorem9"],
    ["verify", "theorem1.3", "--n"],
    ["certify", "signs", "--bad"],
    ["rho", "--alpha", "0.5", "--family", "K2,3", "extra"],
    ["rho", "--alpha", "0.5", "--family", "NOPE"],
    ["enumerate", "--order", "5", "--size", "6"],
    *([verb, "--help"] for verb in ["rho", "bounds", "enumerate", "certify", "verify", "convert"]),
    [],
    ["--help"],
    ["bogus"],
])
def test_one_verb_parser_prints_what_the_full_parser_prints(capsys, monkeypatch, columns, argv):
    # At 50 columns argparse wraps the top-level usage line.
    monkeypatch.setenv("COLUMNS", columns)
    one_verb = _outcome(capsys, argv)
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda verb=None: full())
    assert _outcome(capsys, argv) == one_verb
    assert one_verb[2] in (0, 2)


def test_a_verb_builds_only_its_own_parser(capsys, monkeypatch):
    built = []
    add_parser = argparse._SubParsersAction.add_parser
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser",
                        lambda self, name, **kwargs: built.append(name) or add_parser(self, name, **kwargs))
    assert run_cli(capsys, "verify", "theorem1.3", "--n", "5", "--alpha", "0.5")[0] == 0
    assert built == ["verify"]
    built.clear()
    cli.build_parser()
    assert built == [
        "rho", "bounds", "enumerate", "certify", "columns", "signs", "identity", "verify", "convert",
    ]


def test_out_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _ = run_cli(
        capsys, "verify", "theorem1.3", "--n", "5", "--alpha", "0.5",
        "--format", "json", "--out", str(out_path),
    )
    assert code == 0
    assert json.loads(out_path.read_text())["passed"] is True


def test_module_entry_point_subprocess():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import alphaindex

    # The child imports the package this process imported, installed or not.
    path = [str(Path(alphaindex.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run(
        [sys.executable, "-m", "alphaindex", "rho", "--family", "K2,3", "--alpha", "0.5"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "rho=2.5" in proc.stdout

    proc = subprocess.run(
        [sys.executable, "-m", "alphaindex", "verify", "lemmas", "--targets", "fact3"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 1
    assert "fact3: FAIL" in proc.stdout
