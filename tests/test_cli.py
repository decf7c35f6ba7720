"""Exit-code contracts, spec loading and report determinism."""

import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import groupca
from groupca.cli import build_parser, bundled_spec, load_ca, load_measure, load_sigma, main


def run(argv):
    return main(argv)


def test_bundled_specs_load_and_analyze(tmp_path):
    for name in ("id_plus_sigma_z2", "id_sigma_2sigma2_z4", "classA_F1", "classA_F2"):
        out = tmp_path / f"{name}.json"
        assert run(["analyze", "--ca", name, "--levels", "1", "--out", str(out)]) == 0
        assert out.exists()


def test_missing_file_is_usage_error(capsys):
    assert run(["analyze", "--ca", "missing.json"]) == 2
    assert "file not found" in capsys.readouterr().err


def test_bad_args_is_usage_error():
    assert run(["analyze"]) == 2
    assert run(["nonsense"]) == 2


def test_schema_error_names_field(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "alphabet": {"moduli": [-2]},
        "neighborhood": [0, 1],
        "rule": {"type": "linear", "coeffs": {"0": 1}},
    }))
    assert run(["analyze", "--ca", str(bad)]) == 2
    assert "moduli[0]" in capsys.readouterr().err


def test_table_rule_missing_entry_is_schema_error(tmp_path, capsys):
    spec = {
        "alphabet": {"moduli": [2]},
        "neighborhood": [0, 1],
        "rule": {"type": "table", "entries": [
            {"window": [[0], [0]], "value": [0]},
            {"window": [[0], [1]], "value": [1]},
            {"window": [[1], [0]], "value": [1]},
        ]},
    }
    bad = tmp_path / "incomplete.json"
    bad.write_text(json.dumps(spec))
    assert run(["analyze", "--ca", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "1 of 4 windows missing" in err


def test_dual_bundled_examples(tmp_path, capsys):
    out = tmp_path / "dual.json"
    assert run(["dual", "--bundled-examples", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "{'-1': 1, '0': 1, '1': 1}" in text
    assert "{'-1': 1, '1': 1}" in text
    report = json.loads(out.read_text())
    assert report["classA_F1"]["conjugacy_verified"]
    assert report["classA_F2"]["dual_polynomial"] == {"-1": 1, "1": 1}


def test_kernel_command_with_sigma_restriction(tmp_path):
    sigma_file = tmp_path / "sigma.json"
    sigma_file.write_text(json.dumps({
        "type": "product",
        "alphabet": {"moduli": [4]},
        "grouping": 1,
        "block": [[0], [2]],
    }))
    out = tmp_path / "tower.json"
    rc = run(["kernel", "--ca", "id_sigma_2sigma2_z4", "--levels", "1",
              "--sigma", str(sigma_file), "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["levels"][1]["size"] == 2


def test_modular_command(tmp_path, capsys):
    out = tmp_path / "modular.json"
    assert run(["modular", "--ca", "id_sigma_2sigma2_z4", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["unit_offsets"] == [0, 1]
    assert report["power"] == 2
    assert report["power_polynomial"] == {"0": 1, "1": 2, "2": 1}


def _table_spec(name):
    """The bundled linear rule `name` written out as a table spec."""
    spec = bundled_spec(name)
    F = load_ca(spec)
    abc = [list(a) for a in F.alphabet.elements()]
    windows = itertools.product(abc, repeat=F.width)
    entries = [{"window": list(w), "value": list(F.local(tuple(map(tuple, w))))}
               for w in windows]
    return {**spec, "rule": {"type": "table", "entries": entries}}


@pytest.mark.parametrize("name", ["id_plus_sigma_z2", "id_sigma_2sigma2_z4"])
def test_additive_table_reports_match_the_linear_spec(tmp_path, name):
    table = tmp_path / "table.json"
    table.write_text(json.dumps(_table_spec(name)))
    for argv in (["modular"], ["kernel", "--levels", "3"], ["hypotheses"]):
        # x_0 + x_1 + 2 x_2 over Z/4 is not bipermutative, a failed premise
        code = int(argv == ["hypotheses"] and name == "id_sigma_2sigma2_z4")
        reports = []
        for ca in (name, str(table)):
            out = tmp_path / "out.json"
            assert run(argv + ["--ca", ca, "--out", str(out)]) == code, argv
            report = json.loads(out.read_text())
            report.pop("automaton", None)
            reports.append(report)
        assert reports[0] == reports[1], argv


def test_modular_refuses_a_non_additive_table(tmp_path, capsys):
    entries = [{"window": [[a], [b]], "value": [a * b]} for a in (0, 1) for b in (0, 1)]
    ca = tmp_path / "and.json"
    ca.write_text(json.dumps({"alphabet": {"moduli": [2]}, "neighborhood": [0, 1],
                              "rule": {"type": "table", "entries": entries}}))
    assert run(["modular", "--ca", str(ca)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: table rule is not additive")


def test_measure_counterexample_command(tmp_path):
    out = tmp_path / "ce.json"
    assert run(["measure", "counterexample", "--length", "4", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["mu_sigma_discrepancy"] == {"num": 0, "den": 1}
    assert report["nu_sigma_discrepancy"]["num"] > 0


def test_measure_invariance_and_prob(tmp_path):
    mu_file = tmp_path / "uniform.json"
    mu_file.write_text(json.dumps({"type": "bernoulli", "alphabet": {"moduli": [2]}}))
    rc = run(["measure", "invariance", "--measure", str(mu_file),
              "--ca", "id_plus_sigma_z2", "--f-power", "1", "--length", "4"])
    assert rc == 0
    rc = run(["measure", "prob", "--measure", str(mu_file), "--word", "[[0],[1]]"])
    assert rc == 0
    # a non-invariant case exits 1
    haar_file = tmp_path / "haar_x1.json"
    haar_file.write_text(json.dumps({
        "type": "haar",
        "sigma": {
            "type": "product",
            "alphabet": {"moduli": [2]},
            "grouping": 2,
            "block": [[0, 0], [1, 1]],
        },
    }))
    rc = run(["measure", "invariance", "--measure", str(haar_file),
              "--shift", "1", "--length", "2"])
    assert rc == 1


def test_default_offsets_cover_every_phase(tmp_path):
    # Haar measure on blocks of six letters whose last letter is 0: offsets
    # 0..3 see free letters only, and offset 4 is the first whose shift is pinned
    mu_file = tmp_path / "mu6.json"
    mu_file.write_text(json.dumps({"type": "haar", "sigma": {
        "type": "product", "alphabet": {"moduli": [2]}, "grouping": 6,
        "block": [[*b, 0] for b in itertools.product((0, 1), repeat=5)]}}))
    out = tmp_path / "r.json"
    args = ["measure", "invariance", "--measure", str(mu_file), "--shift", "1", "--length", "1"]
    assert run([*args, "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["witness"] == {"offset": 4, "word": [[0]]}
    assert report["max_discrepancy"] == {"num": 1, "den": 2}
    assert report["cylinders_checked"] == 6 * 2
    assert run([*args, "--mode", "mc", "--mc-samples", "2000"]) == 1


@pytest.mark.parametrize("weights, invariant", [((1, 1), True), ((1, 2), False)])
def test_mc_invariance_output_agrees_with_its_verdict(tmp_path, capsys, weights, invariant):
    # a sampled check almost always has a largest discrepancy; it is a witness
    # only when it passes the stated threshold
    mu_file = tmp_path / "mu.json"
    mu_file.write_text(json.dumps({"type": "bernoulli", "alphabet": {"moduli": [2]}, "weights": [
        {"letter": [a], "num": n, "den": sum(weights)} for a, n in enumerate(weights)]}))
    out = tmp_path / "r.json"
    rc = run(["measure", "invariance", "--measure", str(mu_file), "--ca", "id_plus_sigma_z2",
              "--f-power", "1", "--length", "2", "--mode", "mc", "--mc-samples", "2000",
              "--out", str(out)])
    report = json.loads(out.read_text())
    stdout = capsys.readouterr().out
    assert rc == (0 if invariant else 1) and report["invariant"] is invariant
    assert ("not invariant" in stdout) is (not invariant)
    assert ("witness" in report) is (not invariant)
    assert f"threshold {report['threshold']}" in stdout
    assert (report["max_discrepancy"] <= report["threshold"]) is invariant


def test_measure_haar_test_exit_codes(tmp_path):
    mu_file = tmp_path / "uniform4.json"
    mu_file.write_text(json.dumps({
        "type": "haar",
        "sigma": {
            "type": "product",
            "alphabet": {"moduli": [4]},
            "grouping": 1,
            "block": [[0], [2]],
        },
    }))
    sig_file = tmp_path / "sig.json"
    sig_file.write_text(json.dumps({
        "type": "product",
        "alphabet": {"moduli": [4]},
        "grouping": 1,
        "block": [[0], [2]],
    }))
    assert run(["measure", "haar-test", "--measure", str(mu_file),
                "--sigma", str(sig_file), "--budget", "2"]) == 0
    assert run(["measure", "haar-test", "--measure", str(mu_file),
                "--budget", "2"]) == 1


def test_hypotheses_command(tmp_path):
    out = tmp_path / "hyp.json"
    assert run(["hypotheses", "--ca", "id_plus_sigma_z2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["k"] == 2 and report["p1"] == 1
    assert report["condition4"]["m"] == 0
    assert len(report["unchecked"]) == 2


@pytest.mark.parametrize("ca, premise", [
    ("classA_F1", "bipermutative: False"),
    ("id_sigma_2sigma2_z4", "boundary generation criterion: found=False"),
    # 1 + x^3 over Z/2 is bipermutative: the boundary search is the one failure
    ({"alphabet": {"moduli": [2]}, "neighborhood": [0, 3],
      "rule": {"type": "linear", "coeffs": {"0": 1, "3": 1}}},
     "bipermutative: True"),
])
def test_hypotheses_exits_1_when_a_checked_premise_is_false(ca, premise, tmp_path, capsys):
    if isinstance(ca, dict):
        (tmp_path / "ca.json").write_text(json.dumps(ca))
        ca = str(tmp_path / "ca.json")
    assert run(["hypotheses", "--ca", ca]) == 1
    out = capsys.readouterr().out
    assert premise in out and "all checkable premises hold: False" in out


def test_hypotheses_exits_1_when_the_measure_has_no_entropy(tmp_path, capsys):
    mu = tmp_path / "point.json"
    mu.write_text(json.dumps({"type": "bernoulli", "alphabet": {"moduli": [2]},
                              "weights": [{"letter": [0], "num": 1, "den": 1}]}))
    assert run(["hypotheses", "--ca", "id_plus_sigma_z2", "--measure", str(mu)]) == 1
    assert "entropy positive: False" in capsys.readouterr().out


def test_hypotheses_reads_the_entropy_of_a_kernel_that_is_not_finite(tmp_path, capsys):
    # 2 x_0 over Z/4 has the kernel {0, 2}^Z, of shift entropy log 2
    mu = tmp_path / "evens.json"
    mu.write_text(json.dumps({"type": "haar", "sigma": {"type": "kernel", "ca": {
        "alphabet": {"moduli": [4]}, "neighborhood": [0, 0],
        "rule": {"type": "linear", "coeffs": {"0": 2}}}}}))
    run(["hypotheses", "--ca", "id_sigma_2sigma2_z4", "--measure", str(mu)])
    assert "entropy positive: True (exact shift entropy 0.693147 nats)" in capsys.readouterr().out


def test_haar_on_an_infinite_kernel_counts_its_words_before_listing_them(tmp_path, capsys):
    # 2 x_0 + 2 x_1 over Z/4: every letter has two successors, so 2^(L+1) words of length L
    mu = tmp_path / "kernel.json"
    mu.write_text(json.dumps({"type": "haar", "sigma": {"type": "kernel", "ca": {
        "alphabet": {"moduli": [4]}, "neighborhood": [0, 1],
        "rule": {"type": "linear", "coeffs": {"0": 2, "1": 2}}}}}))
    word = json.dumps([[0]] * 12)
    assert run(["measure", "prob", "--measure", str(mu), "--word", word]) == 0
    assert capsys.readouterr().out == f"P([{word}]_0) = 1/8192\n"
    start = time.perf_counter()
    assert run(["measure", "prob", "--measure", str(mu), "--word", json.dumps([[0]] * 22)]) == 2
    assert time.perf_counter() - start < 0.5
    err = capsys.readouterr()
    assert err.out == ""
    assert err.err == ("error: 8388608 kernel words of length 22 exceed the cap "
                       "MAX_EXACT_WORDS = 4194304\n")


def test_ledrappier_sigma_spec_loads():
    sigma = load_sigma(bundled_spec("ledrappier_kernel_sigma"))
    from groupca.kernels import LinearKernelShift

    assert isinstance(sigma, LinearKernelShift)


# the fewest arguments each subcommand that writes a report parses with
MINIMAL_ARGV = {
    "analyze": ["analyze", "--ca", "x"],
    "kernel": ["kernel", "--ca", "x"],
    "entropy": ["entropy", "--ca", "x"],
    "modular": ["modular", "--ca", "x"],
    "dual": ["dual"],
    "measure prob": ["measure", "prob", "--measure", "m", "--word", "[]"],
    "measure invariance": ["measure", "invariance", "--measure", "m"],
    "measure char": ["measure", "char", "--measure", "m", "--character", "{}"],
    "measure haar-test": ["measure", "haar-test", "--measure", "m"],
    "measure cesaro": ["measure", "cesaro", "--measure", "m", "--ca", "x"],
    "measure counterexample": ["measure", "counterexample"],
    "hypotheses": ["hypotheses", "--ca", "x"],
}


def test_seed_and_cap_only_where_read(capsys):
    parser = build_parser()

    def takes(flag, value):
        accepted = set()
        for name, argv in MINIMAL_ARGV.items():
            try:
                parser.parse_args(argv + [flag, value])
            except SystemExit:
                continue
            accepted.add(name)
        return accepted

    assert takes("--out", "r.json") == set(MINIMAL_ARGV)
    assert takes("--seed", "1") == {"entropy", "measure invariance", "hypotheses"}
    assert takes("--cap", "5") == {"analyze", "kernel"}
    capsys.readouterr()
    assert run(["modular", "--ca", "id_plus_sigma_z2", "--seed", "1"]) == 2
    assert "--seed" in capsys.readouterr().err


def test_bundled_subgroup_shift_as_automaton_is_usage_error(capsys):
    assert run(["kernel", "--ca", "ledrappier_kernel_sigma", "--levels", "1"]) == 2
    err = capsys.readouterr().err
    assert "ca: bundled example 'ledrappier_kernel_sigma'" in err
    assert "not an automaton spec" in err


def test_bundled_automaton_as_subgroup_shift_is_usage_error(capsys):
    assert run(["kernel", "--ca", "id_plus_sigma_z2", "--sigma", "classA_F1"]) == 2
    err = capsys.readouterr().err
    assert "sigma: bundled example 'classA_F1'" in err
    assert "not a subgroup shift spec" in err


def test_report_determinism(tmp_path):
    # the sampled reports too: one seeded stream, the same bytes
    mu = tmp_path / "mu.json"
    mu.write_text(json.dumps({"type": "bernoulli", "alphabet": {"moduli": [2]}}))
    for argv in (
        ["analyze", "--ca", "classA_F1", "--levels", "1"],
        ["measure", "invariance", "--measure", str(mu), "--ca", "id_plus_sigma_z2",
         "--f-power", "1", "--length", "2", "--mode", "mc", "--seed", "3"],
        ["entropy", "--ca", "id_plus_sigma_z2", "--samples", "20000", "--seed", "3"],
        # 20,000 samples are under the 2^16 words of a window: the sampled report
        ["entropy", "--ca", "id_plus_sigma_z2", "--samples", "20000", "--block", "16",
         "--seed", "3"],
    ):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        for out in (out1, out2):
            assert run(argv + ["--out", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


def test_entropy_command_small(tmp_path):
    out = tmp_path / "ent.json"
    rc = run(["entropy", "--ca", "id_plus_sigma_z2", "--samples", "20000",
              "--block", "3", "--seed", "1", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert abs(report["h_sigma_nats"] - 0.693) < 0.05
    assert report["upper_bound_ok"]


def test_sampled_entropy_of_the_small_command():
    # the sampled twin of the command above: same rule, count, block and seed
    from test_entropy import sampled_figures

    from groupca.entropy import bounds_check
    from groupca.measures import Bernoulli

    F = load_ca(bundled_spec("id_plus_sigma_z2"))
    h_sigma, h_f = sampled_figures(F, Bernoulli.uniform(F.alphabet), 20000, 3, 1)
    assert abs(h_sigma - 0.693) < 0.05
    assert bounds_check(F, h_sigma, h_f).upper_ok


def test_entropy_report_says_how_it_got_its_figures(tmp_path, capsys):
    # under the budget the report is exact and the same at every seed
    reports = []
    for seed in ("0", "5"):
        out = tmp_path / f"exact{seed}.json"
        assert run(["entropy", "--ca", "id_plus_sigma_z2", "--samples", "8", "--block", "3",
                    "--seed", seed, "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    report = json.loads(reports[0])
    assert (report["method"], report["seed"], report["samples"]) == ("exact", None, 8)
    assert report["h_sigma_nats"] == report["h_f_estimate_nats"] == pytest.approx(0.693147, abs=1e-6)
    assert "shift entropy: 0.693147 nats (exact H_3 - H_2)" in capsys.readouterr().out
    # one sample fewer, and it samples
    out = tmp_path / "sampled.json"
    run(["entropy", "--ca", "id_plus_sigma_z2", "--samples", "7", "--block", "3",
         "--seed", "5", "--out", str(out)])
    report = json.loads(out.read_text())
    assert (report["method"], report["seed"], report["samples"]) == ("sampled", 5, 7)
    assert "(7 samples, seed 5)" in capsys.readouterr().out


def test_cesaro_command(tmp_path):
    mu_file = tmp_path / "biased.json"
    mu_file.write_text(json.dumps({
        "type": "bernoulli",
        "alphabet": {"moduli": [2]},
        "weights": [
            {"letter": [0], "num": 3, "den": 4},
            {"letter": [1], "num": 1, "den": 4},
        ],
    }))
    out = tmp_path / "cesaro.json"
    assert run(["measure", "cesaro", "--measure", str(mu_file),
                "--ca", "id_plus_sigma_z2", "--steps", "8", "--length", "1",
                "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["distances"][0] == {"num": 1, "den": 4}


def test_degenerate_measure_windows_are_usage_errors(tmp_path, capsys):
    mu_file = tmp_path / "uniform.json"
    mu_file.write_text(json.dumps({"type": "bernoulli", "alphabet": {"moduli": [2]}}))
    assert run(["measure", "cesaro", "--measure", str(mu_file),
                "--ca", "id_plus_sigma_z2", "--steps", "0"]) == 2
    assert "steps must be >= 1" in capsys.readouterr().err
    assert run(["measure", "invariance", "--measure", str(mu_file),
                "--length", "0"]) == 2
    err = capsys.readouterr()
    assert "cylinder length must be >= 1" in err.err
    assert "invariant on all cylinders" not in err.out
    for length in ("0", "-1"):  # refused before any sweep, which once indexed an empty range
        assert run(["measure", "cesaro", "--measure", str(mu_file),
                    "--ca", "id_plus_sigma_z2", "--length", length]) == 2
        err = capsys.readouterr()
        assert err.out == ""
        assert err.err == f"error: window length must be >= 1, got {length}\n"


def test_pushforward_over_cap_is_usage_error(tmp_path, capsys):
    mu_file = tmp_path / "uniform.json"
    mu_file.write_text(json.dumps({"type": "bernoulli", "alphabet": {"moduli": [2]}}))
    ca_file = tmp_path / "xor_table.json"
    entries = [{"window": [[a], [b]], "value": [(a + b) % 2]} for a in (0, 1) for b in (0, 1)]
    ca_file.write_text(json.dumps({
        "alphabet": {"moduli": [2]}, "neighborhood": [0, 1],
        "rule": {"type": "table", "entries": entries},
    }))
    assert run(["measure", "invariance", "--measure", str(mu_file), "--ca", str(ca_file),
                "--f-power", "40"]) == 2
    assert "over cap 65536" in capsys.readouterr().err


@pytest.mark.parametrize("f_power, code", [(10**6, 0), (10**9, 2), (1023 * 2**40, 2)])
def test_large_linear_pushforward_power_answers_or_names_the_cap(tmp_path, f_power, code):
    # x_0 + x_1 over Z/2 to the power 10^6 has 2^7 terms, one per set bit of
    # the power; squaring toward 10^9 passes the cap on the products of terms
    # summed over the chain before it meets one of 2^11 by 2^11 terms, and
    # toward 1023 * 2^40 at its first squaring of 2^10 terms
    mu_file = tmp_path / "push.json"
    mu_file.write_text(json.dumps({
        "type": "pushforward", "base": {"type": "bernoulli", "alphabet": {"moduli": [2]}},
        "ca": "id_plus_sigma_z2", "f_power": f_power}))
    argv = ["measure", "prob", "--measure", str(mu_file), "--word", "[[0],[1]]"]
    src = str(Path(groupca.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "groupca.cli", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=30)
    assert proc.returncode == code, proc.stderr
    if code == 0:
        assert proc.stdout.split() == ["P([[[0],[1]]]_0)", "=", "1/4"]
    else:
        assert proc.stdout == ""
        assert "terms exceeds cap 1048576" in proc.stderr
        assert "Traceback" not in proc.stderr


def test_surjectivity_over_cap_is_usage_error(tmp_path, capsys):
    # 1 + x^30 over Z/2 is a valid rule whose overlap graph has 2^30 states
    ca_file = tmp_path / "one_plus_x30.json"
    ca_file.write_text(json.dumps({
        "alphabet": {"moduli": [2]}, "neighborhood": [0, 30],
        "rule": {"type": "linear", "coeffs": {"0": 1, "30": 1}},
    }))
    assert run(["analyze", "--ca", str(ca_file)]) == 2
    captured = capsys.readouterr()
    assert "|A|^30 = 1073741824 states exceeds cap 1048576" in captured.err
    assert captured.out == ""


def test_linear_coeffs_list_is_spec_error(tmp_path, capsys):
    bad = tmp_path / "coeff_list.json"
    bad.write_text(json.dumps({
        "alphabet": {"moduli": [2]},
        "neighborhood": [0, 1],
        "rule": {"type": "linear", "coeffs": [1, 1]},
    }))
    assert run(["analyze", "--ca", str(bad)]) == 2
    assert "ca.rule.coeffs" in capsys.readouterr().err
    bad.write_text(json.dumps({
        "alphabet": {"moduli": [2]},
        "neighborhood": [0, 1],
        "rule": {"type": "linear", "coeffs": {"0": 1, "1": 1.5}},
    }))
    assert run(["analyze", "--ca", str(bad)]) == 2
    assert "ca.rule.coeffs.1" in capsys.readouterr().err


def test_string_weight_is_spec_error(tmp_path, capsys):
    mu_file = tmp_path / "string_num.json"
    mu_file.write_text(json.dumps({
        "type": "bernoulli",
        "alphabet": {"moduli": [2]},
        "weights": [
            {"letter": [0], "num": "1", "den": 2},
            {"letter": [1], "num": 1, "den": 2},
        ],
    }))
    assert run(["measure", "invariance", "--measure", str(mu_file)]) == 2
    assert "measure.weights[0]" in capsys.readouterr().err
    mu_file.write_text(json.dumps({
        "type": "bernoulli", "alphabet": {"moduli": [2]}, "weights": 1,
    }))
    assert run(["measure", "invariance", "--measure", str(mu_file)]) == 2
    assert "measure.weights" in capsys.readouterr().err


def test_hypotheses_reports_why_criteria_are_missing(tmp_path, capsys):
    affine = tmp_path / "affine.json"
    affine.write_text(json.dumps({
        "alphabet": {"moduli": [2]},
        "neighborhood": [0, 1],
        "rule": {"type": "linear", "coeffs": {"0": 1, "1": 1}, "constant": [1]},
    }))
    out = tmp_path / "hyp.json"
    assert run(["hypotheses", "--ca", str(affine), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["condition4"] is None
    assert report["criteria_skipped"].startswith("NotAlgebraicError: affine rule")
    assert "kernel criteria skipped: NotAlgebraicError" in capsys.readouterr().out
    out_ok = tmp_path / "hyp_ok.json"
    assert run(["hypotheses", "--ca", "id_plus_sigma_z2", "--out", str(out_ok)]) == 0
    assert "criteria_skipped" not in json.loads(out_ok.read_text())


def test_analyze_reports_the_criteria_under_its_cap(tmp_path, capsys):
    # level 2 of 1 + x + x^9 is past the default cap, level 1 is not
    ca = tmp_path / "x9.json"
    ca.write_text(json.dumps({
        "alphabet": {"moduli": [2]},
        "neighborhood": [0, 9],
        "rule": {"type": "linear", "coeffs": {"0": 1, "1": 1, "9": 1}},
    }))
    out = tmp_path / "x9_report.json"
    assert run(["analyze", "--ca", str(ca), "--levels", "2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["kernel_tower"] == {"error": "kernel seed space |A|^18 exceeds cap 65536"}
    assert report["condition4"] == {"found": True, "m": 0, "m_max": 2}
    assert report["corollary_ker"] == {"holds": True, "proper_invariant_subgroups": 0}
    assert report["hypotheses"]["p1"] == 73
    assert "criteria_skipped" not in report
    assert "first-level subgroup criterion: True" in capsys.readouterr().out
    # the criteria read level 1 under --cap too, so a cap below it is refused
    assert run(["analyze", "--ca", "id_plus_sigma_z2", "--cap", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: kernel seed space |A|^1 exceeds cap 1\n"


def _z3_files(tmp_path):
    sigma = tmp_path / "product_z3.json"
    sigma.write_text(json.dumps({
        "type": "product", "alphabet": {"moduli": [3]}, "grouping": 1,
        "block": [[0], [1], [2]],
    }))
    mu = tmp_path / "bernoulli_z3.json"
    mu.write_text(json.dumps({"type": "bernoulli", "alphabet": {"moduli": [3]}}))
    return str(sigma), str(mu)


def _names_sigma_and_alphabets(err, sigma_alphabet, other_alphabet):
    return "sigma" in err and f"over {sigma_alphabet}," in err and other_alphabet in err


def test_hypotheses_sigma_over_another_alphabet_is_usage_error(capsys):
    assert run(["hypotheses", "--ca", "classA_F1", "--sigma", "ledrappier_kernel_sigma"]) == 2
    assert _names_sigma_and_alphabets(capsys.readouterr().err, "Z/2", "Z/2 x Z/2")


def test_hypotheses_product_sigma_over_another_alphabet_is_usage_error(tmp_path, capsys):
    sigma, _ = _z3_files(tmp_path)
    assert run(["hypotheses", "--ca", "id_plus_sigma_z2", "--sigma", sigma]) == 2
    captured = capsys.readouterr()
    assert _names_sigma_and_alphabets(captured.err, "Z/3", "Z/2")
    assert "all checkable premises hold" not in captured.out


def test_kernel_sigma_over_another_alphabet_is_usage_error(tmp_path, capsys):
    sigma, _ = _z3_files(tmp_path)
    assert run(["kernel", "--ca", "id_plus_sigma_z2", "--sigma", sigma]) == 2
    captured = capsys.readouterr()
    assert _names_sigma_and_alphabets(captured.err, "Z/3", "Z/2")
    assert "level 0" not in captured.out


def test_haar_test_sigma_over_another_alphabet_is_usage_error(tmp_path, capsys):
    _, mu = _z3_files(tmp_path)
    assert run(["measure", "haar-test", "--measure", mu,
                "--sigma", "ledrappier_kernel_sigma"]) == 2
    captured = capsys.readouterr()
    assert _names_sigma_and_alphabets(captured.err, "Z/2", "Z/3")
    assert "consistent" not in captured.out


def _graphs_walked(monkeypatch, argv, code):
    """Zero-window graphs of the kernel levels enumerated while running argv,
    which exits with `code`: every enumeration of a level n >= 1 walks its
    graph once, the graph of F^n, known by its neighborhood and matrix terms."""
    from groupca import kernels
    from groupca.automata import matrix_terms

    walk = kernels._annihilated
    graphs = []

    def spy(G, cap):
        graphs.append((G.neighborhood, tuple(sorted(matrix_terms(G).items()))))
        return walk(G, cap)

    monkeypatch.setattr(kernels, "_annihilated", spy)
    assert run(argv) == code
    return graphs


def test_analyze_and_hypotheses_enumerate_each_level_once(monkeypatch):
    # levels 1..3: the tower's 0..2, then level 3 for the boundary search at m = 2
    # hypotheses exits 1: the rule is not bipermutative
    for argv, code in ((["analyze", "--ca", "id_sigma_2sigma2_z4", "--levels", "2"], 0),
                       (["hypotheses", "--ca", "id_sigma_2sigma2_z4"], 1)):
        graphs = _graphs_walked(monkeypatch, argv, code)
        assert len(graphs) == len(set(graphs)) == 3, argv


def test_negative_levels_are_usage_errors(capsys):
    for command in ("kernel", "analyze"):
        assert run([command, "--ca", "id_plus_sigma_z2", "--levels", "-1"]) == 2, command
        captured = capsys.readouterr()
        assert "depth must be >= 0" in captured.err
        assert "divisibility" not in captured.out


def test_hypotheses_measure_over_another_alphabet_is_usage_error(tmp_path, capsys):
    _, mu = _z3_files(tmp_path)
    assert run(["hypotheses", "--ca", "id_plus_sigma_z2", "--measure", mu]) == 2
    captured = capsys.readouterr()
    assert "alphabet mismatch: the measure is over Z/3, not over Z/2" in captured.err
    assert "all checkable premises hold" not in captured.out


def test_import_and_examples_leave_numpy_unloaded(tmp_path):
    # samples are drawn with the standard library: neither exact nor sampled
    # invariance, entropy, nor a sampled or exact shift entropy loads numpy
    mu = tmp_path / "mu.json"
    mu.write_text(json.dumps({"type": "bernoulli", "alphabet": {"moduli": [2]}, "weights": [
        {"letter": [0], "num": 1, "den": 3}, {"letter": [1], "num": 2, "den": 3}]}))
    sampled = tmp_path / "and.json"
    sampled.write_text(json.dumps(AND_OF_UNIFORM_Z2))
    invariance = ['measure', 'invariance', '--measure', str(mu), '--ca', 'id_plus_sigma_z2',
                  '--f-power', '1', '--length', '2']
    script = (
        "import sys\n"
        "def unloaded(step):\n"
        "    assert not {'inspect', 'numpy'} & set(sys.modules), step\n"
        "import groupca\n"
        "unloaded('import groupca')\n"
        "from groupca.cli import main\n"
        "unloaded('import groupca.cli')\n"
        "assert main(['examples']) == 0\n"
        "unloaded('groupca examples')\n"
        f"main({invariance!r})\n"
        "unloaded('measure invariance')\n"
        f"main({invariance + ['--mode', 'mc', '--mc-samples', '500']!r})\n"
        "unloaded('measure invariance --mode mc')\n"
        "assert main(['entropy', '--ca', 'classA_F1', '--samples', '4000']) == 0\n"
        "unloaded('entropy')\n"
        f"main(['hypotheses', '--ca', 'id_plus_sigma_z2', '--measure', {str(mu)!r}])\n"
        "unloaded('hypotheses')\n"
        f"main(['hypotheses', '--ca', 'id_plus_sigma_z2', '--measure', {str(sampled)!r}])\n"
        "unloaded('hypotheses, sampled shift entropy')\n"
    )
    src = str(Path(groupca.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


UNIFORM_Z2 = {"type": "bernoulli", "alphabet": {"moduli": [2]}}
# uniform Bernoulli pushed by x_0 x_1, a rule that is not surjective: no
# closed form gives its shift entropy, so `hypotheses` samples it
AND_OF_UNIFORM_Z2 = {"type": "pushforward", "base": UNIFORM_Z2, "ca": {
    "alphabet": {"moduli": [2]}, "neighborhood": [0, 1], "rule": {"type": "table", "entries": [
        {"window": [[a], [b]], "value": [a * b]} for a in (0, 1) for b in (0, 1)]}}}


RULES = {"groups", "configs", "automata"}
# the measure names the benchmark's inputs are built from, then exact
# invariance and Cesaro on a kernel-Haar measure and a pushforward
MEASURES = (
    "from fractions import Fraction\n"
    "from groupca import (Bernoulli, GroupSpec, HaarMeasure, LinearKernelShift,\n"
    "    MixtureMeasure, ProductSubgroup, PushforwardMeasure, Subgroup, cesaro_sequence,\n"
    "    invariance_check, linear_ca, table_ca)\n"
    "Z2 = GroupSpec((2,))\n"
    "F = linear_ca(Z2, {0: 1, 1: 1})\n"
    "haar = HaarMeasure(LinearKernelShift(linear_ca(Z2, {0: 1, 1: 1, 2: 1})))\n"
    "mu = MixtureMeasure(((Fraction(1, 2), haar), (Fraction(1, 2), PushforwardMeasure(\n"
    "    Bernoulli(Z2, {(0,): Fraction(1, 3), (1,): Fraction(2, 3)}), F, f_power=1))))\n"
    "assert invariance_check(mu, F, f_power=1, length=3).cylinders_checked\n"
    "assert cesaro_sequence(mu, F, 4, 2).distances_to_uniform\n"
)


def _cli(*argv: str) -> str:
    """One CLI call through `main`, in a directory holding mu.json."""
    return f"from groupca.cli import main\nassert main({list(argv)!r}) == 0\n"


KERNEL = RULES | {"cli", "shifts", "modular", "kernels"}
# `measures` imports the hypothesis report and `entropy` the closed forms
# from `hypotheses`
MEASURE = RULES | {"cli", "shifts", "hypotheses", "measures"}
ANALYZE = KERNEL | {"hypotheses"}


@pytest.mark.parametrize("code, loaded", [
    ("import groupca", set()),
    ("from groupca import GroupSpec, linear_ca, table_ca", RULES),
    (MEASURES, RULES | {"shifts", "hypotheses", "measures"}),
    ("from groupca import tower", RULES | {"shifts", "modular", "kernels"}),
    ("import groupca.cli", {"cli"}),
    (_cli("examples"), {"cli"}),
    (_cli("dual", "--bundled-examples"), RULES | {"cli", "class_a"}),
    (_cli("modular", "--ca", "id_plus_sigma_z2"), RULES | {"cli", "modular"}),
    (_cli("kernel", "--ca", "id_plus_sigma_z2", "--sigma", "ledrappier_kernel_sigma"), KERNEL),
    (_cli("measure", "cesaro", "--measure", "mu.json", "--ca", "id_plus_sigma_z2",
          "--steps", "2"), MEASURE),
    (_cli("measure", "counterexample", "--length", "3"), MEASURE),
    (_cli("measure", "invariance", "--measure", "mu.json", "--ca", "id_plus_sigma_z2",
          "--f-power", "1", "--mode", "mc", "--mc-samples", "100"),
     MEASURE | {"entropy"}),
    (_cli("entropy", "--ca", "id_plus_sigma_z2", "--samples", "1000"),
     MEASURE | {"entropy"}),
    # a mod-4 rule neither on the window [0,1] nor bipermutative
    (_cli("analyze", "--ca", "id_sigma_2sigma2_z4"), ANALYZE),
    # on the window [0,1] and bipermutative: class (A) analysis and the
    # entropy closed form, which `hypotheses` holds
    (_cli("analyze", "--ca", "id_plus_sigma_z2"), ANALYZE | {"class_a"}),
    (_cli("hypotheses", "--ca", "id_plus_sigma_z2", "--measure", "mu.json"),
     ANALYZE | {"measures"}),
    # a measure with no closed-form shift entropy: `entropy` samples it
    (_cli("hypotheses", "--ca", "id_plus_sigma_z2", "--measure", "and.json"),
     ANALYZE | {"measures", "entropy"}),
    # an abstract measure: neither `measures` nor `entropy`
    (_cli("hypotheses", "--ca", "id_plus_sigma_z2"), ANALYZE),
], ids=["package", "rules", "measures", "tower", "cli", "cli-examples", "cli-dual",
        "cli-modular", "cli-kernel", "cli-cesaro", "cli-counterexample", "cli-mc-invariance",
        "cli-entropy", "cli-analyze", "cli-analyze-class-a", "cli-hypotheses",
        "cli-hypotheses-sampled", "cli-hypotheses-abstract"])
def test_each_import_loads_only_the_modules_it_uses(code, loaded, tmp_path):
    # a fresh interpreter compiling every module it executes, as the CLI
    # runs; `cli` lists modules it has not executed yet, so those are left out.
    # No call loads `dataclasses`, `inspect` or numpy, not even one that
    # draws samples.
    (tmp_path / "mu.json").write_text(json.dumps(UNIFORM_Z2))
    (tmp_path / "and.json").write_text(json.dumps(AND_OF_UNIFORM_Z2))
    script = code + (
        "\nimport importlib.util, sys\n"
        "lazy = importlib.util._LazyModule\n"
        "print(*sorted(n for n in ('dataclasses', 'inspect', 'numpy') if n in sys.modules))\n"
        "print(*sorted(n.split('.')[1] for n, m in sys.modules.items()\n"
        "              if n.startswith('groupca.') and type(m) is not lazy))\n"
    )
    src = str(Path(groupca.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    *_, stdlib, groupca_modules = proc.stdout.splitlines()
    assert set(groupca_modules.split()) == loaded
    assert stdlib == ""


def test_dual_depth_zero_is_usage_error(capsys):
    assert run(["dual", "--ca", "classA_F1", "--depth", "0"]) == 2
    captured = capsys.readouterr()
    assert "depth >= 1 and width >= 2, got depth 0" in captured.err
    assert "conjugacy verified" not in captured.out


@pytest.mark.parametrize("command", ["kernel", "analyze"])
@pytest.mark.parametrize("cap", ["0", "-1"])
def test_cap_below_one_is_usage_error(command, cap, capsys):
    assert run([command, "--ca", "id_plus_sigma_z2", "--cap", cap]) == 2
    captured = capsys.readouterr()
    assert f"argument --cap: must be >= 1, got {cap}" in captured.err
    assert "exceeds cap" not in captured.err + captured.out
    assert captured.out == ""


def test_dual_width_one_is_usage_error(capsys):
    assert run(["dual", "--ca", "classA_F1", "--width", "1"]) == 2
    captured = capsys.readouterr()
    assert "depth >= 1 and width >= 2, got depth 2 and width 1" in captured.err
    assert "conjugacy verified" not in captured.out


def test_analyze_conjugacy_width_one_is_usage_error(capsys):
    assert run(["analyze", "--ca", "classA_F1", "--conjugacy-width", "1"]) == 2
    captured = capsys.readouterr()
    assert "depth >= 1 and width >= 2, got depth 2 and width 1" in captured.err
    assert "conjugacy verified" not in captured.out


def _prob_output(tmp_path, capsys, measure, word="[[0],[1],[1]]"):
    path = tmp_path / "measure.json"
    path.write_text(json.dumps(measure))
    capsys.readouterr()
    code = run(["measure", "prob", "--measure", str(path), "--word", word])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bundled_ca_name_in_a_measure_spec(tmp_path, capsys):
    inline = bundled_spec("id_plus_sigma_z2")
    base = {"type": "pushforward", "base": UNIFORM_Z2, "ca": inline}
    named = {**base, "ca": "id_plus_sigma_z2"}
    want = _prob_output(tmp_path, capsys, base)
    assert want[0] == 0
    assert _prob_output(tmp_path, capsys, named) == want
    orbit = {"type": "periodic_orbit", "alphabet": {"moduli": [2]},
             "period_word": [[0], [1], [1]]}
    want = _prob_output(tmp_path, capsys, {**orbit, "ca": inline})
    assert want[0] == 0
    assert _prob_output(tmp_path, capsys, {**orbit, "ca": "id_plus_sigma_z2"}) == want
    haar = {"type": "haar", "sigma": {"type": "kernel", "ca": inline}}
    want = _prob_output(tmp_path, capsys, haar)
    assert want[0] == 0
    named = {"type": "haar", "sigma": {"type": "kernel", "ca": "id_plus_sigma_z2"}}
    assert _prob_output(tmp_path, capsys, named) == want


def test_bundled_ca_name_in_a_nested_measure_spec(tmp_path, capsys):
    def mixture(ca):
        push = {"type": "pushforward", "base": UNIFORM_Z2, "ca": ca, "shift": 1}
        return {"type": "mixture", "components": [
            {"num": 1, "den": 3, "measure": UNIFORM_Z2},
            {"num": 2, "den": 3, "measure": push},
        ]}

    want = _prob_output(tmp_path, capsys, mixture(bundled_spec("id_plus_sigma_z2")))
    assert want[0] == 0
    assert _prob_output(tmp_path, capsys, mixture("id_plus_sigma_z2")) == want
    code, out, err = _prob_output(tmp_path, capsys, mixture("no_such_rule"))
    assert code == 2
    assert ("measure.components[1].measure.ca: unknown bundled example 'no_such_rule'"
            in err)
    assert out == ""


def test_non_integer_spec_fields_are_spec_errors(tmp_path, capsys):
    push = {"type": "pushforward", "base": UNIFORM_Z2, "ca": "id_plus_sigma_z2"}
    for field, value in (("f_power", "x"), ("shift", 1.5), ("f_power", -1)):
        code, out, err = _prob_output(tmp_path, capsys, {**push, field: value}, "[[0]]")
        assert code == 2
        assert f"spec error: measure.{field}: expected an integer" in err
    sigma = tmp_path / "phase.json"
    sigma.write_text(json.dumps({
        "type": "product", "alphabet": {"moduli": [2]}, "grouping": 1,
        "block": [[0], [1]], "phase": "a",
    }))
    assert run(["kernel", "--ca", "id_plus_sigma_z2", "--levels", "2",
                "--sigma", str(sigma)]) == 2
    assert "spec error: sigma.phase: expected an integer, got 'a'" in capsys.readouterr().err


def test_repeated_entries_are_spec_errors(tmp_path, capsys):
    twice = {"type": "bernoulli", "alphabet": {"moduli": [2]}, "weights": [
        {"letter": [0], "num": 1, "den": 1},
        {"letter": [0], "num": 1, "den": 1},
    ]}
    code, _, err = _prob_output(tmp_path, capsys, twice, "[[0]]")
    assert code == 2
    assert ("measure.weights[1].letter: repeated letter, first listed at "
            "measure.weights[0].letter") in err
    entries = [{"window": [[a], [b]], "value": [(a + b) % 2]} for a in (0, 1) for b in (0, 1)]
    bad = tmp_path / "table.json"
    bad.write_text(json.dumps({
        "alphabet": {"moduli": [2]},
        "neighborhood": [0, 1],
        "rule": {"type": "table", "entries": entries + [{"window": [[0], [1]], "value": [0]}]},
    }))
    assert run(["analyze", "--ca", str(bad)]) == 2
    assert ("ca.rule.entries[4].window: repeated window, first listed at "
            "ca.rule.entries[1].window") in capsys.readouterr().err


def test_letter_arguments_name_the_flag(tmp_path, capsys):
    code, _, err = _prob_output(tmp_path, capsys, UNIFORM_Z2, "[[0,1]]")
    assert code == 2
    assert "spec error: --word[0]: letter must list 1 residues" in err
    path = tmp_path / "measure.json"
    assert run(["measure", "char", "--measure", str(path), "--character", '{"0":[1,1]}']) == 2
    assert "spec error: --character.0: letter must list 1 residues" in capsys.readouterr().err
    assert run(["measure", "char", "--measure", str(path), "--character", '{"0":[1]}']) == 0


# -- fuzzing the spec loaders: one field of a valid spec given the wrong type ------


_Z2 = {"moduli": [2]}
_FUZZ_SPECS = {
    "ca": [
        {"alphabet": _Z2, "neighborhood": [0, 1],
         "rule": {"type": "linear", "coeffs": {"0": 1, "1": 1}, "constant": [1]}},
        {"alphabet": {"moduli": [2, 2]}, "neighborhood": [-1, 0],
         "rule": {"type": "linear", "coeffs": {"-1": [[1, 0], [1, 1]], "0": 1}}},
        {"alphabet": _Z2, "neighborhood": [0, 0], "rule": {"type": "table", "entries": [
            {"window": [[0]], "value": [0]}, {"window": [[1]], "value": [1]}]}},
    ],
    "sigma": [
        {"type": "full", "alphabet": _Z2},
        {"type": "product", "alphabet": _Z2, "grouping": 2,
         "block": [[0, 0], [1, 1]], "phase": 1},
        {"type": "kernel", "ca": bundled_spec("ledrappier_kernel_sigma")["ca"]},
    ],
    "measure": [
        {"type": "bernoulli", "alphabet": _Z2, "weights": [
            {"letter": [0], "num": 1, "den": 3}, {"letter": [1], "num": 2, "den": 3}]},
        {"type": "haar", "sigma": {"type": "product", "alphabet": _Z2, "grouping": 1,
                                   "block": [[0], [1]]}},
        {"type": "pushforward", "base": {"type": "bernoulli", "alphabet": _Z2},
         "ca": "id_plus_sigma_z2", "f_power": 1, "shift": 1},
        {"type": "mixture", "components": [
            {"num": 1, "den": 2, "measure": {"type": "bernoulli", "alphabet": _Z2}},
            {"num": 1, "den": 2, "measure": {
                "type": "periodic_orbit", "alphabet": _Z2, "period_word": [[0], [1]],
                "ca": "id_plus_sigma_z2"}},
        ]},
    ],
}
_FUZZ_ARGV = {
    "ca": lambda path: ["kernel", "--ca", path, "--levels", "1"],
    "sigma": lambda path: ["kernel", "--ca", "id_plus_sigma_z2", "--levels", "1",
                           "--sigma", path],
    "measure": lambda path: ["measure", "prob", "--measure", path, "--word", "[[0]]"],
}
# one value of each JSON type, integers and other numbers told apart
_WRONG_VALUES = [None, True, 0, 2.5, "x", [], {}]


def _json_type(value) -> str:
    if isinstance(value, bool) or value is None:
        return repr(value is None)
    return type(value).__name__


def _fields(obj, keys=()):
    """Every field of a spec, the spec itself included, as its key path."""
    yield keys
    items = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield from _fields(value, keys + (key,))


def _field_path(root, keys):
    return root + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys)


def _replaced(obj, keys, value):
    if not keys:
        return value
    copy = dict(obj) if isinstance(obj, dict) else list(obj)
    copy[keys[0]] = _replaced(obj[keys[0]], keys[1:], value)
    return copy


@st.composite
def _malformed_specs(draw):
    root = draw(st.sampled_from(sorted(_FUZZ_SPECS)))
    spec = draw(st.sampled_from(_FUZZ_SPECS[root]))
    keys = draw(st.sampled_from(list(_fields(spec))))
    old = spec
    for k in keys:
        old = old[k]
    accepted = {_json_type(old)}
    if keys[-2:-1] == ("coeffs",):
        accepted |= {"int", "list"}  # a coefficient is an integer or a matrix
    value = draw(st.sampled_from([v for v in _WRONG_VALUES
                                  if _json_type(v) not in accepted]))
    return root, _replaced(spec, keys, value), _field_path(root, keys)


def _on_one_path(a: str, b: str) -> bool:
    """Whether one field path lies inside the other."""
    short, long = sorted((a, b), key=len)
    return long == short or long.startswith((short + ".", short + "["))


@settings(max_examples=200, deadline=None)
@given(_malformed_specs())
@example(("ca", _replaced(_FUZZ_SPECS["ca"][2], ("rule", "entries"), 5), "ca.rule.entries"))
@example(("sigma", _replaced(_FUZZ_SPECS["sigma"][1], ("block",), 5), "sigma.block"))
@example(("measure", _replaced(_FUZZ_SPECS["measure"][3], ("components",), 5),
          "measure.components"))
@example(("measure", _replaced(_FUZZ_SPECS["measure"][3],
                               ("components", 1, "measure", "period_word"), 5),
          "measure.components[1].measure.period_word"))
def test_a_field_of_the_wrong_type_is_a_spec_error(tmp_path_factory, case):
    root, spec, field = case
    path = tmp_path_factory.mktemp("spec") / "spec.json"
    path.write_text(json.dumps(spec))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(_FUZZ_ARGV[root](str(path)))
    assert code == 2
    message = err.getvalue().strip().splitlines()[-1]
    assert message.startswith("spec error: "), message
    named = message[len("spec error: "):].split(": ")[0]
    assert _on_one_path(named, field), (field, message)


_Z3 = {"moduli": [3]}


@pytest.mark.parametrize("root, spec, field", [
    ("ca", _replaced(_FUZZ_SPECS["ca"][0], ("alphabet", "moduli"), [1]), "ca.alphabet.moduli[0]"),
    ("sigma", _replaced(_FUZZ_SPECS["sigma"][1], ("grouping",), 0), "sigma.grouping"),
    ("measure", _replaced(_FUZZ_SPECS["measure"][2], ("f_power",), -1), "measure.f_power"),
    ("measure", {"type": "periodic_orbit", "alphabet": _Z2, "period_word": []},
     "measure.period_word"),
    ("ca", _replaced(_FUZZ_SPECS["ca"][0], ("neighborhood",), [1, 0]), "ca.neighborhood"),
    ("ca", _replaced(_FUZZ_SPECS["ca"][0], ("rule", "coeffs"), {"0": 1, "2": 1}),
     "ca.rule.coeffs.2"),
    ("measure", _replaced(_FUZZ_SPECS["measure"][0], ("weights", 0, "den"), 0),
     "measure.weights[0]"),
    ("measure", _replaced(_FUZZ_SPECS["measure"][0], ("weights", 0, "num"), -1),
     "measure.weights"),
    ("measure", _replaced(_FUZZ_SPECS["measure"][3], ("components", 0, "num"), -1),
     "measure.components"),
    ("measure", {"type": "periodic_orbit", "alphabet": _Z3, "period_word": [[0], [1]],
                 "ca": "id_plus_sigma_z2"}, "measure.ca"),
    ("measure", _replaced(_FUZZ_SPECS["measure"][2], ("base", "alphabet"), _Z3), "measure.ca"),
])
def test_a_field_out_of_range_is_a_spec_error(tmp_path, capsys, root, spec, field):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert run(_FUZZ_ARGV[root](str(path))) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    message = captured.err.strip().splitlines()[-1]
    assert message.startswith(f"spec error: {field}: "), message


def test_the_fuzzed_specs_are_valid():
    for root, specs in _FUZZ_SPECS.items():
        load = {"ca": load_ca, "sigma": load_sigma, "measure": load_measure}[root]
        for spec in specs:
            load(spec)


@pytest.mark.parametrize("argv, message", [
    (["analyze", "--ca", "id_plus_sigma_z2", "--m-max", "-5"], "m_max must be >= 0, got -5"),
    (["hypotheses", "--ca", "id_plus_sigma_z2", "--m-max", "-1"],
     "m_max must be >= 0, got -1"),
    (["measure", "haar-test", "--measure", "MU", "--budget", "0"],
     "support budget must be >= 1, got 0"),
    (["measure", "invariance", "--measure", "MU", "--ca", "id_plus_sigma_z2",
      "--mode", "mc", "--mc-samples", "0"], "mc_samples must be >= 1 in mc mode, got 0"),
    (["entropy", "--ca", "id_plus_sigma_z2", "--samples", "0"], "must be >= 1, got 0 and 4"),
    (["entropy", "--ca", "id_plus_sigma_z2", "--block", "0", "--samples", "10"],
     "must be >= 1, got 10 and 0"),
])
def test_out_of_range_arguments_are_usage_errors(tmp_path, capsys, argv, message):
    mu = tmp_path / "uniform.json"
    mu.write_text(json.dumps({"type": "bernoulli", "alphabet": {"moduli": [2]}}))
    assert run([str(mu) if a == "MU" else a for a in argv]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["analyze", "--ca", "id_plus_sigma_z2", "--m-max", "-5"], "m_max must be >= 0, got -5"),
    (["analyze", "--ca", "classA_F1", "--conjugacy-width", "1"],
     "conjugacy check needs depth >= 1 and width >= 2, got depth 2 and width 1"),
    (["dual", "--ca", "classA_F1", "--depth", "0"],
     "conjugacy check needs depth >= 1 and width >= 2, got depth 0 and width 8"),
])
def test_a_late_usage_error_leaves_stdout_empty(capsys, argv, message):
    # each command has report lines ready before its argument is refused
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_entropy_refuses_a_measure_over_another_alphabet(tmp_path, capsys):
    mu = tmp_path / "z3.json"
    mu.write_text(json.dumps({"type": "bernoulli", "alphabet": {"moduli": [3]}}))
    assert run(["entropy", "--ca", "id_plus_sigma_z2", "--measure", str(mu),
                "--samples", "100"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "alphabet mismatch: the measure is over Z/3, not over Z/2" in captured.err


@pytest.mark.parametrize("argv", [
    ["measure", "invariance", "--f-power", "1", "--length", "2"],
    ["measure", "cesaro", "--steps", "3"],
])
def test_measure_diagnostics_refuse_a_rule_over_another_alphabet(tmp_path, capsys, argv):
    mu = tmp_path / "z3.json"
    mu.write_text(json.dumps({"type": "bernoulli", "alphabet": {"moduli": [3]}}))
    assert run(argv + ["--measure", str(mu), "--ca", "id_plus_sigma_z2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "alphabet mismatch: the measure is over Z/3, not over Z/2" in captured.err


def test_entropy_of_a_product_haar_measure(tmp_path, capsys):
    mu = tmp_path / "haar.json"
    mu.write_text(json.dumps({"type": "haar", "sigma": {
        "type": "product", "alphabet": {"moduli": [2]}, "grouping": 2,
        "block": [[0, 0], [1, 1]]}}))
    argv = ["entropy", "--ca", "id_plus_sigma_z2", "--measure", str(mu),
            "--samples", "20000", "--block", "3"]
    assert run(argv) == 0
    assert "automaton entropy estimate" in capsys.readouterr().out


def test_closed_output_pipe_is_exit_2_without_traceback():
    # far more output than a pipe holds, so the command is still writing
    # when the reader leaves after the first line
    argv = ["kernel", "--ca", "id_plus_sigma_z2", "--levels", "1000", "--cap", str(10**400)]
    src = str(Path(groupca.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.Popen([sys.executable, "-m", "groupca.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"level 0: size 1, p_0 = 1\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 2
    assert "Traceback" not in err and "Exception ignored" not in err, err


@pytest.mark.parametrize("name", ["id_plus_sigma_z2", "classA_F1"])
def test_a_rule_padded_past_its_window_gets_the_class_a_analysis(tmp_path, capsys, name):
    # declared on [0, 2] with a zero coefficient at 2: the smallest form is
    # the bundled rule on [0, 1], and both subcommands analyse that
    spec = bundled_spec(name)
    rank = len(spec["alphabet"]["moduli"])
    zero = 0 if rank == 1 else [[0] * rank for _ in range(rank)]
    padded = tmp_path / "padded.json"
    padded.write_text(json.dumps({**spec, "neighborhood": [0, 2], "rule": {
        **spec["rule"], "coeffs": {**spec["rule"]["coeffs"], "2": zero}}}))
    reports = {}
    for ca in (name, str(padded)):
        for command in ("dual", "analyze"):
            out = tmp_path / f"{command}.json"
            assert run([command, "--ca", ca, "--out", str(out)]) == 0, (command, ca)
            reports[command, ca] = json.loads(out.read_text())
    capsys.readouterr()
    assert reports["dual", str(padded)][str(padded)] == reports["dual", name][name]
    assert reports["analyze", str(padded)]["class_a"] == reports["analyze", name]["class_a"]
    assert reports["analyze", str(padded)]["declared_neighborhood"] == [0, 2]
