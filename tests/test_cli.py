"""Exit-code contracts, spec loading and report determinism."""

import json

from groupca.cli import bundled_spec, load_sigma, main


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


def test_ledrappier_sigma_spec_loads():
    sigma = load_sigma(bundled_spec("ledrappier_kernel_sigma"))
    from groupca.kernels import LinearKernelShift

    assert isinstance(sigma, LinearKernelShift)


def test_report_determinism(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        assert run(["analyze", "--ca", "classA_F1", "--levels", "1",
                    "--out", str(out), "--seed", "7"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_entropy_command_small(tmp_path):
    out = tmp_path / "ent.json"
    rc = run(["entropy", "--ca", "id_plus_sigma_z2", "--samples", "20000",
              "--block", "3", "--seed", "1", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert abs(report["h_sigma_nats"] - 0.693) < 0.05
    assert report["upper_bound_ok"]


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
