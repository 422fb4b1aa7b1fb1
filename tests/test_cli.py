import json
import math

import numpy as np
import pytest

from ldpkit.bounds import (
    BayesConfig,
    FanoConfig,
    LeCamConfig,
    bayes_egamma_lb,
    bayes_xu_raginsky_private,
    fano_lb,
    highdim_mean_lb,
    ht_exponent,
    lecam_private,
    mi_cap,
    moment_estimation_lb,
    small_ball_uniform01,
)
from ldpkit.cli import BOUNDS, main, parse_grid_spec, parse_linear_grid
from ldpkit.contraction import PrivacyParams
from ldpkit.errors import DomainError
from ldpkit.info import BernoulliUniformModel, bu_igamma, bu_mutual_information
from ldpkit.kernel import k_rr, randomized_response


@pytest.fixture
def rr1_file(tmp_path):
    path = tmp_path / "rr1.json"
    path.write_text(randomized_response(1.0).to_json())
    return path


@pytest.fixture
def identity_file(tmp_path):
    path = tmp_path / "eye.csv"
    path.write_text("1,0\n0,1\n")
    return path


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseHelpers:
    def test_linear_grid(self):
        assert np.allclose(parse_linear_grid("0:2:5"), [0, 0.5, 1, 1.5, 2])
        assert parse_linear_grid("3:4:1").tolist() == [3.0]
        with pytest.raises(DomainError):
            parse_linear_grid("1:2")
        with pytest.raises(DomainError):
            parse_linear_grid("2:1:5")

    def test_grid_spec(self):
        spec = parse_grid_spec("1e-4:0.5:100:log")
        assert (spec.lo, spec.hi, spec.steps, spec.scale) == (1e-4, 0.5, 100, "log")
        assert parse_grid_spec("0:1:10").scale == "linear"


class TestAudit:
    def test_certified_exit_zero(self, capsys, rr1_file):
        code, out, _ = run(capsys, ["audit", str(rr1_file), "--epsilon", "1", "--delta", "0"])
        assert code == 0
        payload = json.loads(out)
        assert payload["certified"] is True
        assert payload["delta_tight"] <= 1e-12
        assert payload["verifier"]["violation_found"] is False

    def test_uncertified_exit_two(self, capsys, identity_file):
        code, out, _ = run(capsys, ["audit", str(identity_file), "--epsilon", "5", "--delta", "0"])
        assert code == 2
        payload = json.loads(out)
        assert payload["delta_tight"] == 1.0
        assert payload["verifier"]["violation_found"] is True

    def test_malformed_kernel_exit_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("0.5,0.5\n0.9,0.3\n")
        code, _, err = run(capsys, ["audit", str(bad), "--epsilon", "1"])
        assert code == 1
        assert "row 1" in err

    @pytest.mark.parametrize(
        "name, text",
        [
            ("token.csv", "0.5,abc\n0.5,0.5\n"),
            ("truncated.json", '{"rows": [[0.5, 0.5], [0.2'),
            ("array.json", "[[0.5, 0.5], [0.2, 0.8]]\n"),
            ("bytes.csv", "\xff\xfe0.5,0.5"),
            pytest.param(
                "nested.json", '{"rows": ' + "[" * 100000 + "]" * 100000 + "}", id="nested.json"
            ),
            ("bool.json", '{"rows": [[true, false], [0.5, 0.5]]}'),
            ("string.json", '{"rows": [[0.5, 0.5], ["0.5", "0.5"]]}'),
            ("null.json", '{"rows": [[null, 1], [0.5, 0.5]]}'),
            pytest.param(
                "bigint.json", '{"rows": [[1' + "0" * 400 + ', 0], [0.5, 0.5]]}', id="bigint.json"
            ),
        ],
    )
    def test_unparseable_kernel_is_one_error_line(self, capsys, tmp_path, name, text):
        path = tmp_path / name
        # latin-1 writes each character as the byte of the same value, so
        # the last case is the bytes ff fe, which are not UTF-8.
        path.write_bytes(text.encode("latin-1"))
        code, out, err = run(capsys, ["audit", str(path), "--epsilon", "1"])
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: malformed kernel file")

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"rows": [[]]}', "kernel must be a non-empty 2-d matrix"),
            ('{"rows": [[NaN, 1]]}', "kernel entries must be finite"),
            ("{}", 'kernel JSON must contain a "rows" field'),
            ('{"rows": []}', "kernel file contains no rows"),
        ],
    )
    def test_rejected_kernel_is_one_error_line(self, capsys, tmp_path, text, message):
        path = tmp_path / "kernel.json"
        path.write_text(text)
        code, out, err = run(capsys, ["audit", str(path), "--epsilon", "1"])
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {message}")

    def test_delta_without_epsilon_is_one_error_line(self, capsys, rr1_file):
        code, out, err = run(capsys, ["audit", str(rr1_file), "--delta", "0.01"])
        assert code == 1
        assert out == ""
        assert err == "error: --delta requires --epsilon\n"

    def test_overflowing_epsilon_is_one_error_line(self, capsys, rr1_file):
        code, out, err = run(capsys, ["audit", str(rr1_file), "--epsilon", "1e6"])
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and "overflows" in err

    def test_missing_file_exit_one(self, capsys, tmp_path):
        code, _, err = run(capsys, ["audit", str(tmp_path / "nope.json"), "--epsilon", "1"])
        assert code == 1

    def test_profile_csv(self, capsys, rr1_file, tmp_path):
        out_csv = tmp_path / "profile.csv"
        code, out, _ = run(
            capsys,
            ["audit", str(rr1_file), "--profile-grid", "0:2:21", "--out", str(out_csv)],
        )
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "epsilon,delta"
        assert len(lines) == 22
        deltas = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(b <= a + 1e-12 for a, b in zip(deltas, deltas[1:]))
        # hits zero at the mechanism's own level
        assert deltas[10] <= 1e-12
        manifest = json.loads((tmp_path / "profile.csv.manifest.json").read_text())
        assert manifest["outputs"] == [str(out_csv)]
        assert manifest["command"] == "audit"

    def test_profile_csv_byte_reproducible(self, capsys, rr1_file, tmp_path):
        a, b = tmp_path / "p1.csv", tmp_path / "p2.csv"
        base = ["audit", str(rr1_file), "--profile-grid", "0:2:11", "--seed", "3"]
        assert run(capsys, base + ["--out", str(a)])[0] == 0
        assert run(capsys, base + ["--out", str(b)])[0] == 0
        assert a.read_bytes() == b.read_bytes()


class TestFigure1:
    def test_small_run_byte_reproducible(self, capsys, tmp_path):
        args = ["figure1", "--n", "3", "--panels", "2000", "--eps-grid", "0.05:2:8"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(capsys, args + ["--out", str(a)])[0] == 0
        assert run(capsys, args + ["--out", str(b)])[0] == 0
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()
        assert lines[0] == "epsilon,bayes_lb_mi,bayes_lb_egamma"
        assert len(lines) == 9

    def test_manifest_written(self, capsys, tmp_path):
        out = tmp_path / "fig.csv"
        code, stdout, _ = run(
            capsys,
            ["figure1", "--n", "2", "--panels", "1000", "--eps-grid", "0.1:1:3", "--out", str(out)],
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload["outputs"] == [str(out)]
        manifest = json.loads((tmp_path / "fig.csv.manifest.json").read_text())
        assert manifest["args"]["n"] == 2


class TestBound:
    def test_lecam(self, capsys):
        code, out, _ = run(
            capsys,
            ["bound", "lecam", "--tau", "1", "--kl", "0.1", "--n", "10", "--eps", "1"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(0.2189, abs=1e-4)

    def test_ht(self, capsys):
        code, out, _ = run(
            capsys, ["bound", "ht", "--kl", "1", "--eps", "0.6931471805599453"]
        )
        assert json.loads(out)["value"] == pytest.approx(-0.5, abs=1e-12)

    def test_micap(self, capsys):
        code, out, _ = run(
            capsys, ["bound", "micap", "--entropy", "0.6931", "--eps", "0", "--delta", "1"]
        )
        assert json.loads(out)["value"] == pytest.approx(0.6931, abs=1e-12)

    def test_moment_domain_error_exit_one(self, capsys):
        code, _, err = run(capsys, ["bound", "moment", "--k-moment", "1", "--eps", "1"])
        assert code == 1
        assert "moment" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["lecam", "--tau", "1", "--n", "10", "--kl"],
            ["fano", "--v-count", "4", "--tau", "1", "--avg-kl"],
            ["fano", "--v-count", "4", "--tau", "1", "--avg-kl", "0.1", "--mi"],
            ["bayes-mi", "--n", "10", "--info"],
            ["bayes-egamma", "--n", "10", "--info"],
            ["ht", "--kl"],
            ["micap", "--entropy"],
        ],
    )
    @pytest.mark.parametrize("value", ["-5", "nan"])
    def test_negative_or_nan_information_is_one_error_line(self, capsys, argv, value):
        code, out, err = run(capsys, ["bound", *argv, value, "--eps", "1"])
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and "must be >= 0" in err

    def test_bayes_mi_with_model(self, capsys):
        code, out, _ = run(
            capsys,
            ["bound", "bayes-mi", "--bu-n", "1", "--bu-panels", "2000",
             "--eps", "0", "--delta", "1"],
        )
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(0.045659, abs=1e-4)
        assert payload["inputs"]["bu_model"] == {"n": 1, "panels": 2000}

    def test_bayes_egamma_with_explicit_info_has_no_model_record(self, capsys):
        code, out, _ = run(
            capsys,
            ["bound", "bayes-egamma", "--info", "0.25", "--eps", "0.5", "--delta", "0"],
        )
        payload = json.loads(out)
        assert "bu_model" not in payload["inputs"]

    def test_explicit_constant_variants_labeled(self, capsys):
        _, out, _ = run(
            capsys, ["bound", "moment", "--k-moment", "2", "--eps", "0", "--delta", "1"]
        )
        assert json.loads(out)["inputs"]["variant"] == "explicit-constant"
        _, out, _ = run(
            capsys,
            ["bound", "highdim", "--d", "8", "--r", "1", "--n", "64", "--eps", "1"],
        )
        assert json.loads(out)["inputs"]["variant"] == "explicit-constant"

    def test_bayes_gammaopt(self, capsys):
        code, out, _ = run(capsys, ["bound", "bayes-gammaopt"])
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(2.0 / 27.0, abs=1e-4)
        assert payload["witness"]["gamma"] == pytest.approx(4.0 / 3.0, abs=5e-3)

    def test_sweep_writes_csv(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        code, stdout, _ = run(
            capsys,
            ["bound", "ht", "--kl", "1", "--eps", "0", "--sweep", "epsilon", "0:2:5",
             "--out", str(out)],
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "epsilon,value"
        assert len(lines) == 6
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert values[0] == 0.0
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_sweep_requires_out(self, capsys):
        code, _, err = run(
            capsys, ["bound", "ht", "--kl", "1", "--eps", "0", "--sweep", "epsilon", "0:1:3"]
        )
        assert code == 1
        assert "--out" in err

    def test_sweep_rejects_other_params(self, capsys):
        code, _, err = run(
            capsys,
            ["bound", "ht", "--kl", "1", "--eps", "0", "--sweep", "delta", "0:1:3",
             "--out", "x.csv"],
        )
        assert code == 1
        assert "epsilon" in err

    def test_moment_sweep_includes_witness_column(self, capsys, tmp_path):
        out = tmp_path / "m.csv"
        code, _, _ = run(
            capsys,
            ["bound", "moment", "--k-moment", "2", "--n", "4", "--eps", "0",
             "--delta", "0.5", "--sweep", "epsilon", "0.1:2:4", "--out", str(out)],
        )
        assert code == 0
        assert out.read_text().splitlines()[0] == "epsilon,value,witness_omega"


_BU = BernoulliUniformModel(3, 200)

# subcommand -> (its own flags, the library value at PrivacyParams p)
BOUND_CASES = {
    "lecam": (
        ["--tau", "0.5", "--kl", "0.05", "--n", "10"],
        lambda p: lecam_private(LeCamConfig(0.5, 0.05, 10, p)).value,
    ),
    "moment": (["--k-moment", "2", "--n", "16"], lambda p: moment_estimation_lb(2.0, 16, p).value),
    "fano": (
        ["--v-count", "64", "--avg-kl", "0.01", "--tau", "0.5", "--n", "20"],
        lambda p: fano_lb(FanoConfig(64, 0.01, 0.5, 20, p)).value,
    ),
    "highdim": (["--d", "8", "--r", "1", "--n", "64"], lambda p: highdim_mean_lb(8, 1.0, 64, p).value),
    "bayes-mi": (
        ["--bu-n", "3", "--bu-panels", "200", "--n", "5"],
        lambda p: bayes_xu_raginsky_private(
            BayesConfig(small_ball_uniform01, bu_mutual_information(_BU), 5, p)
        ).value,
    ),
    "bayes-egamma": (
        ["--bu-n", "3", "--bu-panels", "200", "--n", "5"],
        lambda p: bayes_egamma_lb(
            BayesConfig(small_ball_uniform01, bu_igamma(_BU, math.exp(p.epsilon)), 5, p)
        ).value,
    ),
    "ht": (["--kl", "1"], lambda p: ht_exponent(1.0, p)),
    "micap": (["--entropy", "0.7"], lambda p: mi_cap(0.7, p)),
}


@pytest.mark.parametrize("kind", list(BOUNDS))
def test_every_bound_subcommand_matches_library_and_its_sweep(kind, capsys, tmp_path):
    flags, library = BOUND_CASES[kind]  # a table entry without a case fails here
    delta = 1e-3

    def single(eps):
        code, out, _ = run(capsys, ["bound", kind, *flags, "--eps", repr(eps), "--delta", repr(delta)])
        assert code == 0
        return json.loads(out)

    assert single(0.7)["value"] == library(PrivacyParams(0.7, delta))
    csv = tmp_path / "sweep.csv"
    code, _, _ = run(
        capsys,
        ["bound", kind, *flags, "--eps", "0.7", "--delta", repr(delta),
         "--sweep", "epsilon", "0.2:2.5:4", "--out", str(csv)],
    )
    assert code == 0
    header, *rows = csv.read_text().splitlines()
    assert len(rows) == 4
    for row in rows:
        eps, *values = map(float, row.split(","))
        report = single(eps)
        witness = report["witness"]
        assert header == ",".join(["epsilon", "value"] + [f"witness_{k}" for k in sorted(witness)])
        assert values == [report["value"]] + [witness[k] for k in sorted(witness)]


class TestBayesModelCommands:
    def test_mutual_information_computed_once_per_sweep(self, capsys, tmp_path, monkeypatch):
        import ldpkit.cli

        calls = []

        def counting(model):
            calls.append(model)
            return bu_mutual_information(model)

        monkeypatch.setattr(ldpkit.cli, "bu_mutual_information", counting)
        code, _, _ = run(
            capsys,
            ["bound", "bayes-mi", "--bu-n", "20", "--n", "20", "--eps", "1",
             "--sweep", "epsilon", "0.1:3:5", "--out", str(tmp_path / "mi.csv")],
        )
        assert code == 0
        assert len(calls) == 1
        assert len((tmp_path / "mi.csv").read_text().splitlines()) == 6

    @pytest.mark.parametrize(
        "grid", ["0.5:0.1:20", "1:2", "a:b:3", "1:2:3:log:x", "0:1:5:log", "0:inf:10"]
    )
    @pytest.mark.parametrize(
        "argv",
        [["bound", "bayes-mi", "--eps", "1", "--zeta-grid"],
         ["bound", "bayes-gammaopt", "--zeta-grid"],
         ["bound", "bayes-gammaopt", "--gamma-grid"]],
    )
    def test_rejected_grid_is_one_error_line(self, capsys, argv, grid):
        code, out, err = run(capsys, [*argv, grid])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "grid" in err

    def test_grid_flags_reach_the_manifest_as_specs(self, capsys, tmp_path):
        out = tmp_path / "s.csv"
        code, _, _ = run(
            capsys,
            ["bound", "bayes-mi", "--bu-n", "2", "--eps", "1", "--zeta-grid", "1e-3:0.5:50:log",
             "--sweep", "epsilon", "0.5:1:2", "--out", str(out)],
        )
        assert code == 0
        manifest = json.loads((tmp_path / "s.csv.manifest.json").read_text())
        assert manifest["args"]["zeta_grid"] == {"lo": 1e-3, "hi": 0.5, "steps": 50, "scale": "log"}

    @pytest.mark.parametrize("kind", ["bayes-mi", "bayes-egamma"])
    def test_large_model_runs(self, capsys, kind):
        # from n = 1030 the binomial coefficients overflow a float
        code, out, err = run(capsys, ["bound", kind, "--bu-n", "2000", "--n", "5", "--eps", "1"])
        assert code == 0, err
        payload = json.loads(out)
        assert math.isfinite(payload["value"]) and payload["value"] >= 0.0
        assert payload["inputs"]["bu_model"] == {"n": 2000, "panels": 20000}

    def test_gammaopt_records_the_model_at_every_n(self, capsys):
        for n in ("1", "3"):
            code, out, _ = run(capsys, ["bound", "bayes-gammaopt", "--bu-n", n,
                                        "--gamma-grid", "0:4:50"])
            assert code == 0
            assert json.loads(out)["inputs"]["bu_model"] == {"n": int(n), "panels": 20000}


class TestRemark:
    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, ["remark", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["ordering_holds"] is True
        assert payload["bayes_lb_egamma"]["value"] == pytest.approx(2 / 27, abs=1e-3)
        assert payload["bayes_lb_mi"]["value"] == pytest.approx(0.045659, abs=1e-3)
        assert payload["reference_egamma"] == 0.08
        assert payload["reference_mi"] == 0.03

    def test_table_output(self, capsys):
        code, out, _ = run(capsys, ["remark"])
        assert code == 0
        assert "gamma-optimized" in out
        assert "mutual-info" in out
        assert "True" in out

    def test_bits_flag_converts_display(self, capsys):
        _, nats_out, _ = run(capsys, ["remark"])
        _, bits_out, _ = run(capsys, ["remark", "--bits"])
        assert "0.193147 nats" in nats_out
        assert "0.278652 bits" in bits_out


class TestOracleCommands:
    def test_eta_f(self, capsys, rr1_file):
        code, out, _ = run(
            capsys,
            ["oracle", "eta-f", str(rr1_file), "--f", "egamma", "--gamma",
             str(math.e), "--trials", "200", "--seed", "5"],
        )
        assert code == 0
        assert json.loads(out)["eta_estimate"] <= 1e-10

    def test_eta_f_deterministic(self, capsys, rr1_file):
        argv = ["oracle", "eta-f", str(rr1_file), "--f", "kl", "--trials", "300", "--seed", "9"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2

    @pytest.mark.parametrize("alpha", ["inf", "nan", "0"])
    def test_eta_f_rejects_unusable_dirichlet_alpha(self, capsys, rr1_file, alpha):
        code, out, err = run(
            capsys, ["oracle", "eta-f", str(rr1_file), "--f", "kl", "--alpha", alpha]
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: dirichlet_alpha must be finite and positive")

    def test_profile_check(self, capsys, rr1_file):
        code, out, _ = run(
            capsys, ["oracle", "profile-check", str(rr1_file), "--epsilon", "0.5"]
        )
        payload = json.loads(out)
        assert payload["delta"] == pytest.approx(payload["delta_formula"], abs=1e-12)


class TestOutputDirEnv:
    def test_relative_paths_resolve_against_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("LDPKIT_OUT_DIR", str(tmp_path))
        code, _, _ = run(
            capsys,
            ["audit", str(tmp_path / "k.json"), "--profile-grid", "0:1:3", "--out", "p.csv"],
        )
        # kernel file missing, exit 1; write it and retry
        (tmp_path / "k.json").write_text(k_rr(1.0, 3).to_json())
        code, _, _ = run(
            capsys,
            ["audit", str(tmp_path / "k.json"), "--profile-grid", "0:1:3", "--out", "p.csv"],
        )
        assert code == 0
        assert (tmp_path / "p.csv").exists()
