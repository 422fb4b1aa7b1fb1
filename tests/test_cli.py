import json
import math
import os
import re
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from ldpkit import DEFAULT_SEED
from ldpkit.bounds import (
    BayesConfig,
    GridSpec,
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
from ldpkit.cli import BOUNDS, main, parse_grid_spec, write_csv
from ldpkit.contraction import PrivacyParams
from ldpkit.dist import FGenerator
from ldpkit.errors import DomainError
from ldpkit.info import BernoulliUniformModel, bu_igamma, bu_mutual_information
from ldpkit.kernel import Kernel, k_rr, load_kernel, randomized_response
from ldpkit.ldp import privacy_profile, tightest_epsilon
from ldpkit.oracle import MAX_PROFILE_WORK, SearchConfig, brute_eta_f
from support import hadamard_response, ldpkit_path


def kernel_json(k) -> str:
    return json.dumps({"rows": k.rows.tolist()})


@pytest.fixture
def rr1_file(tmp_path):
    path = tmp_path / "rr1.json"
    path.write_text(kernel_json(randomized_response(1.0)))
    return path


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_error(capsys, argv) -> str:
    """Stderr of a run that must exit 1 with no stdout and one error line."""
    code, out, err = run(capsys, argv)
    assert (code, out, err.count("\n")) == (1, "", 1) and err.startswith("error: "), err
    return err


class TestParseHelpers:
    def test_linear_grid(self):
        assert np.allclose(parse_grid_spec("0:2:5").points(), [0, 0.5, 1, 1.5, 2])
        assert parse_grid_spec("3:4:1").points().tolist() == [3.0]
        assert parse_grid_spec("3:-4:1").points().tolist() == [3.0]
        with pytest.raises(DomainError):
            parse_grid_spec("1:2")
        with pytest.raises(DomainError):
            parse_grid_spec("2:1:5")

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

    def test_malformed_kernel_exit_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("0.5,0.5\n0.9,0.3\n")
        assert "row 1" in run_error(capsys, ["audit", str(bad), "--epsilon", "1"])

    @pytest.mark.parametrize(
        "name, text",
        [
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
        path.write_text(text)
        err = run_error(capsys, ["audit", str(path), "--epsilon", "1"])
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
        err = run_error(capsys, ["audit", str(path), "--epsilon", "1"])
        assert err.startswith(f"error: {message}")

    # --delta alone reports tightest_epsilon's epsilon* and delta_achieved,
    # and exits 0. Disjoint supports leave epsilon* = inf; Hadamard response
    # has the closed form epsilon* = ln(e^eps - 2 delta (1 + e^eps)).
    @pytest.mark.parametrize(
        "kernel, delta, closed_form",
        [(k_rr(1.0, 5), 0.01, None),
         (Kernel(np.random.default_rng(4).dirichlet(np.ones(8), size=6)), 1e-6, None),
         (Kernel([[0.2, 0.3, 0.5, 0, 0, 0], [0, 0, 0, 0.1, 0.6, 0.3]]), 0.5, math.inf),
         (hadamard_response(1.0, 7), 0.05, math.log(math.e - 2 * 0.05 * (1 + math.e)))],
        ids=["k_rr", "dirichlet", "disjoint", "hadamard"],
    )
    def test_delta_without_epsilon_reports_epsilon_star(
        self, capsys, tmp_path, kernel, delta, closed_form
    ):
        path = tmp_path / "k.json"
        path.write_text(kernel_json(kernel))
        code, out, _ = run(capsys, ["audit", str(path), "--delta", repr(delta)])
        payload, search = json.loads(out), tightest_epsilon(load_kernel(path), delta)
        assert code == 0 and "certified" not in payload
        keys = ("delta_requested", "epsilon_star", "delta_achieved")
        assert [payload[key] for key in keys] == [delta, search.epsilon, search.delta_achieved]
        if closed_form is not None:
            ulps = 4 * math.ulp(closed_form)
            assert math.isclose(payload["epsilon_star"], closed_form, rel_tol=0.0, abs_tol=ulps)

    def test_delta_alone_is_checked_before_the_file(self, capsys, tmp_path):
        err = run_error(capsys, ["audit", str(tmp_path / "missing.json"), "--delta", "2"])
        assert err == "error: delta must be in [0, 1], got 2.0\n"

    # --out writes only the profile (audit) or the sweep (bound), so
    # without one it would write nothing.
    @pytest.mark.parametrize("out", ["x.csv", ""])
    @pytest.mark.parametrize(
        "argv, needed",
        [(["audit", "{kernel}", "--epsilon", "1"], "--profile-grid"),
         (["bound", "ht", "--kl", "1", "--eps", "1"], "--sweep")],
    )
    def test_out_without_its_curve_is_one_error_line(
        self, capsys, rr1_file, tmp_path, monkeypatch, argv, needed, out
    ):
        monkeypatch.chdir(tmp_path)
        argv = [a.format(kernel=rr1_file) for a in argv]
        err = run_error(capsys, [*argv, "--out", out])
        assert err == f"error: --out requires {needed}\n"
        assert not (tmp_path / "x.csv").exists()

    # Between the two tolerances: delta_tight exceeds delta by 5e-11, so
    # the kernel is not certified, and the worst point-mass pair must say so.
    def test_uncertified_near_the_tight_delta_finds_a_violation(self, capsys, rr1_file):
        _, out, _ = run(capsys, ["audit", str(rr1_file), "--epsilon", "0.5"])
        delta = json.loads(out)["delta_tight"] - 5e-11
        code, out, _ = run(capsys, ["audit", str(rr1_file), "--epsilon", "0.5",
                                    "--delta", repr(delta)])
        payload = json.loads(out)
        assert (code, payload["certified"]) == (2, False)
        assert payload["verifier"]["violation_found"] is True

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

    # delta_tight, eta_tv, the verifier, epsilon* and the profile all read the
    # kernel's kept scans, so each gamma of a run is scanned `scans` times: once,
    # or never when the run asks for nothing.
    @pytest.mark.parametrize(
        "argv, scans",
        [(["{rr1}"], 0), (["{rr1}", "--epsilon", "1"], 1),
         (["{rr1}", "--epsilon", "1", "--delta", "0.5"], 1),
         (["{rr1}", "--profile-grid", "0:3:31"], 1),
         (["{rr1}", "--epsilon", "1", "--delta", "0.5", "--profile-grid", "0:3:31"], 1),
         (["{k}", "--delta", "0.1", "--profile-grid", "0:3:31"], 1),
         (["{k}", "--epsilon", "0.55", "--delta", "0.1", "--profile-grid", "0:3:31"], 1)],
    )
    def test_one_scan_per_run(self, capsys, rr1_file, tmp_path, monkeypatch, argv, scans):
        import ldpkit.contraction
        import ldpkit.ldp
        from ldpkit.contraction import two_point_scan

        k_file = tmp_path / "k.json"
        k_file.write_text(kernel_json(Kernel([[0.75, 0.25], [0.25, 0.75]])))
        scanned = []

        def counting(k, gammas):
            scanned.extend(gammas)
            return two_point_scan(k, gammas)

        for module in (ldpkit.contraction, ldpkit.ldp):
            monkeypatch.setattr(module, "two_point_scan", counting)
        path, *flags = [a.format(rr1=rr1_file, k=k_file) for a in argv]
        code, out, _ = run(capsys, ["audit", path, *flags])
        payload, kernel, options = json.loads(out), load_kernel(path), dict(zip(flags, flags[1:]))
        assert code == (0 if payload.get("certified", True) else 2)
        assert set(Counter(scanned).values()) == ({scans} if scans else set())
        if "--epsilon" in options:
            gamma = math.exp(float(options["--epsilon"]))
            (delta_tight, eta_tv), (pair, _) = two_point_scan(kernel, [gamma, 1.0])
            assert [payload["delta_tight"], payload["eta_tv"]] == [delta_tight, eta_tv]
            assert payload["argmax_pair"] == list(pair)
        if "--profile-grid" in options:
            profile = privacy_profile(kernel, parse_grid_spec("0:3:31").points())
            assert payload["profile"] == [list(p) for p in profile.points]

    def test_profile_csv_byte_reproducible(self, capsys, rr1_file, tmp_path):
        a, b = tmp_path / "p1.csv", tmp_path / "p2.csv"
        base = ["audit", str(rr1_file), "--profile-grid", "0:2:11", "--seed", "3"]
        assert run(capsys, base + ["--out", str(a)])[0] == 0
        assert run(capsys, base + ["--out", str(b)])[0] == 0
        assert a.read_bytes() == b.read_bytes()


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
        assert "moment" in run_error(capsys, ["bound", "moment", "--k-moment", "1", "--eps", "1"])

    # The moment exponent 2(k - 1)/k is inf/inf, bayes-egamma at n = 1,
    # delta = 0 multiplies I by c = 0, and a separation or radius is a length.
    @pytest.mark.parametrize(
        "argv",
        [["moment", "--k-moment"], ["bayes-egamma", "--info"],
         ["lecam", "--kl", "0.1", "--n", "10", "--tau"],
         ["fano", "--v-count", "4", "--avg-kl", "0.1", "--n", "10", "--tau"],
         ["highdim", "--d", "8", "--n", "64", "--r"]],
    )
    def test_infinite_input_without_a_limit_is_one_error_line(self, capsys, argv):
        assert "finite" in run_error(capsys, ["bound", *argv, "inf", "--eps", "1"])

    @pytest.mark.parametrize(
        "argv, value",
        [(["ht", "--kl"], -math.inf), (["lecam", "--tau", "1", "--kl"], 0.0),
         (["fano", "--v-count", "4", "--avg-kl", "0.1", "--tau", "1", "--mi"], 0.0)],
    )
    def test_infinite_information_with_a_limit_keeps_its_value(self, capsys, argv, value):
        code, out, _ = run(capsys, ["bound", *argv, "inf", "--eps", "1"])
        assert (code, json.loads(out)["value"]) == (0, value)

    # At eps = delta = 0, phi = 0 lets no information through, so an
    # infinite information gives the bound of a finite one.
    @pytest.mark.parametrize(
        "argv, finite",
        [
            (["ht", "--kl"], "1"),
            (["micap", "--entropy"], "1"),
            (["lecam", "--tau", "1", "--kl"], "1"),
            (["fano", "--v-count", "4", "--avg-kl", "0.1", "--tau", "1", "--mi"], "1"),
            (["fano", "--v-count", "4", "--tau", "1", "--avg-kl"], "0.1"),
        ],
    )
    def test_infinite_information_at_zero_phi_passes_none(self, capsys, argv, finite):
        code, out, _ = run(capsys, ["bound", *argv, "inf", "--eps", "0"])
        _, finite_out, _ = run(capsys, ["bound", *argv, finite, "--eps", "0"])
        assert (code, json.loads(out)["value"]) == (0, json.loads(finite_out)["value"])

    @pytest.mark.parametrize(
        "argv, value",
        [
            (["ht", "--kl"], -math.inf),
            (["micap", "--entropy"], math.inf),
            (["lecam", "--tau", "1", "--kl"], 0.0),
            (["fano", "--v-count", "4", "--avg-kl", "0.1", "--tau", "1", "--mi"], 0.0),
            (["fano", "--v-count", "4", "--tau", "1", "--avg-kl"], 0.0),
        ],
    )
    def test_infinite_information_at_positive_phi_keeps_its_value(self, capsys, argv, value):
        code, out, _ = run(capsys, ["bound", *argv, "inf", "--eps", "0.5"])
        assert (code, json.loads(out)["value"]) == (0, value)

    # Each of these messages once left out the value it rejected.
    @pytest.mark.parametrize(
        "argv, name",
        [
            (["lecam", "--tau", "1", "--kl"], "kl_p0_p1"),
            (["ht", "--kl"], "kl_p0_p1"),
            (["fano", "--v-count", "4", "--tau", "1", "--avg-kl"], "avg_pairwise_kl"),
            (["fano", "--v-count", "4", "--tau", "1", "--avg-kl", "0.1", "--mi"], "mi_xn_v"),
            (["micap", "--entropy"], "entropy"),
            (["bayes-mi", "--info"], "info_value"),
            (["bayes-egamma", "--info"], "info_value"),
        ],
    )
    @pytest.mark.parametrize("value", ["-5", "nan"])
    def test_rejected_information_is_named_in_its_error_line(self, capsys, argv, name, value):
        err = run_error(capsys, ["bound", *argv, value, "--eps", "1"])
        assert err == f"error: {name} must be >= 0, got {float(value)}\n"

    # gamma = e^eps = inf meets L(0) = 0 at zeta = 0: inf * 0 gave a
    # RuntimeWarning and a NaN value.
    def test_bayes_egamma_at_infinite_epsilon_is_vacuous(self, capsys):
        argv = ["bound", "bayes-egamma", "--eps", "inf", "--info", "0.1", "--zeta-grid", "0:0.5:3"]
        code, out, err = run(capsys, argv)
        payload = json.loads(out)
        assert (code, err, payload["value"], payload["flags"]) == (0, "", 0.0, ["vacuous"])

    def test_bayes_mi_with_huge_information_warns_nothing(self, capsys):
        code, out, err = run(capsys, ["bound", "bayes-mi", "--info", "1e308", "--eps", "1"])
        assert (code, err, json.loads(out)["value"]) == (0, "", 0.0)

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

    def test_bayes_gammaopt(self, capsys):
        code, out, _ = run(capsys, ["bound", "bayes-gammaopt"])
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(2.0 / 27.0, abs=1e-4)
        assert payload["witness"]["gamma"] == pytest.approx(4.0 / 3.0, abs=5e-3)

    # A witness on an end of the gamma grid is flagged: the supremum over
    # gamma may lie beyond the grid.
    @pytest.mark.parametrize(
        "flags, edge",
        [(["--bu-n", "2"], False), (["--bu-n", "10"], False), (["--bu-n", "20"], False),
         (["--bu-n", "100"], True), (["--bu-n", "2", "--gamma-grid", "1.5:4:10"], True)],
    )
    def test_bayes_gammaopt_flags_a_witness_on_the_grid_edge(self, capsys, flags, edge):
        payload = json.loads(run(capsys, ["bound", "bayes-gammaopt", *flags])[1])
        grid = payload["inputs"]["gamma_grid"]
        assert (payload["witness"]["gamma"] in (grid["lo"], grid["hi"])) is edge
        assert payload["flags"] == (["gamma-at-grid-edge"] if edge else [])

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
        err = run_error(
            capsys, ["bound", "ht", "--kl", "1", "--eps", "0", "--sweep", "epsilon", "0:1:3"]
        )
        assert "--out" in err

    def test_sweep_rejects_other_params(self, capsys):
        err = run_error(
            capsys,
            ["bound", "ht", "--kl", "1", "--eps", "0", "--sweep", "delta", "0:1:3",
             "--out", "x.csv"],
        )
        assert "epsilon" in err

    @pytest.mark.parametrize("eps", ["-5", "nan"])
    def test_sweep_checks_eps(self, capsys, tmp_path, eps):
        # a sweep takes each epsilon from its grid, but --eps is still checked
        out = tmp_path / "s.csv"
        err = run_error(
            capsys,
            ["bound", "moment", "--k-moment", "2", "--n", "4", "--eps", eps,
             "--sweep", "epsilon", "0.1:1:3", "--out", str(out)],
        )
        assert err == f"error: epsilon must be >= 0, got {float(eps)!r}\n"
        assert not out.exists()


_BU = BernoulliUniformModel(3)

# subcommand -> (its own flags, the library value at PrivacyParams p)
BOUND_CASES = {
    "lecam": (
        ["--tau", "0.5", "--kl", "0.05", "--n", "10"],
        lambda p: lecam_private(0.5, 0.05, 10, p).value,
    ),
    "moment": (["--k-moment", "2", "--n", "16"], lambda p: moment_estimation_lb(2.0, 16, p).value),
    "fano": (
        ["--v-count", "64", "--avg-kl", "0.01", "--tau", "0.5", "--n", "20"],
        lambda p: fano_lb(64, 0.01, 0.5, 20, p).value,
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
    "ht": (["--kl", "1"], lambda p: ht_exponent(1.0, p).value),
    "micap": (["--entropy", "0.7"], lambda p: mi_cap(0.7, p).value),
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
        import ldpkit.info

        calls = []

        def counting(model):
            calls.append(model)
            return bu_mutual_information(model)

        monkeypatch.setattr(ldpkit.info, "bu_mutual_information", counting)
        code, _, _ = run(
            capsys,
            ["bound", "bayes-mi", "--bu-n", "20", "--n", "20", "--eps", "1",
             "--sweep", "epsilon", "0.1:3:5", "--out", str(tmp_path / "mi.csv")],
        )
        assert code == 0
        assert len(calls) == 1
        assert len((tmp_path / "mi.csv").read_text().splitlines()) == 6

    @pytest.mark.parametrize(
        "argv",
        [["bound", "bayes-egamma", "--bu-n", "20", "--n", "20", "--eps", "1",
          "--sweep", "epsilon", "0.1:3:5", "--out", "{out}"],
         ["figure1", "--n", "20", "--eps-grid", "0.1:3:5", "--out", "{out}"],
         ["model-curves", "--n", "20", "--gamma-grid", "0.1:3:5", "--n-max", "1",
          "--igamma-out", "{out}", "--mi-out", "{out}.mi"]],
    )
    def test_igamma_computed_in_one_call_per_curve(self, capsys, tmp_path, monkeypatch, argv):
        import ldpkit.info

        calls = []

        def counting(model, gamma):
            calls.append(np.shape(gamma))
            return bu_igamma(model, gamma)

        monkeypatch.setattr(ldpkit.info, "bu_igamma", counting)
        out = tmp_path / "curve.csv"
        code, _, _ = run(capsys, [a.format(out=out) for a in argv])
        assert code == 0
        assert calls == [(5,)]
        assert len(out.read_text().splitlines()) == 6

    # The model's information is for --bu-n draws; the coefficient is for --n.
    @pytest.mark.parametrize("kind", ["bayes-egamma", "bayes-mi"])
    @pytest.mark.parametrize(
        "argv, flagged",
        [(["--bu-n", "20"], True), (["--bu-n", "20", "--n", "20"], False),
         (["--n", "20"], True), (["--bu-n", "20", "--info", "0.1"], False)],
    )
    def test_model_information_for_another_n_is_flagged(self, capsys, kind, argv, flagged):
        code, out, _ = run(capsys, ["bound", kind, *argv, "--eps", "0.5", "--delta", "0"])
        flags = json.loads(out)["flags"]
        assert code == 0 and ("n-differs-from-bu-n" in flags) == flagged
        if kind == "bayes-egamma" and argv == ["--bu-n", "20"]:
            assert json.loads(out)["value"] == pytest.approx(0.0758, abs=1e-4)

    @pytest.mark.parametrize(
        "argv",
        [["bound", "bayes-egamma", "--eps", "1"], ["bound", "bayes-mi", "--eps", "1"],
         ["bound", "bayes-egamma", "--eps", "1", "--info", "0.1"], ["bound", "bayes-gammaopt"]],
    )
    def test_negative_zeta_grid_is_one_error_line(self, capsys, argv):
        assert "zeta grid needs lo >= 0" in run_error(capsys, [*argv, "--zeta-grid=-1:-0.5:10"])

    @pytest.mark.parametrize(
        "grid", ["0.5:0.1:20", "1:2", "a:b:3", "1:2:3:log:x", "0:1:5:log", "0:inf:10"]
    )
    @pytest.mark.parametrize(
        "argv",
        [["bound", "bayes-mi", "--eps", "1", "--zeta-grid"],
         ["bound", "bayes-gammaopt", "--zeta-grid"],
         ["bound", "bayes-gammaopt", "--gamma-grid"],
         ["audit", "{kernel}", "--profile-grid"],
         ["figure1", "--out", "{out}", "--eps-grid"],
         ["bound", "moment", "--k-moment", "2", "--eps", "1", "--out", "{out}",
          "--sweep", "epsilon"]],
    )
    def test_rejected_grid_is_one_error_line(self, capsys, tmp_path, rr1_file, argv, grid):
        argv = [a.format(kernel=rr1_file, out=tmp_path / "unwritten.csv") for a in argv]
        assert "grid" in run_error(capsys, [*argv, grid])

    def test_grid_flags_reach_the_manifest_as_specs(self, capsys, tmp_path, rr1_file):
        runs = [
            (["bound", "bayes-mi", "--bu-n", "2", "--eps", "1", "--zeta-grid", "1e-3:0.5:50:log",
              "--sweep", "epsilon", "0.5:1:2", "--out", "{out}"],
             {"zeta_grid": {"lo": 1e-3, "hi": 0.5, "steps": 50, "scale": "log"},
              "sweep": ["epsilon", {"lo": 0.5, "hi": 1.0, "steps": 2, "scale": "linear"}]}),
            (["audit", str(rr1_file), "--profile-grid", "0.1:1:4:log", "--out", "{out}"],
             {"profile_grid": {"lo": 0.1, "hi": 1.0, "steps": 4, "scale": "log"}}),
            (["figure1", "--n", "2", "--eps-grid", "0.1:1:3", "--out", "{out}"],
             {"eps_grid": {"lo": 0.1, "hi": 1.0, "steps": 3, "scale": "linear"}}),
            (["model-curves", "--n", "2", "--n-max", "1", "--gamma-grid", "0.5:3:7:log",
              "--igamma-out", "{out}", "--mi-out", "{out}.mi"],
             {"gamma_grid": {"lo": 0.5, "hi": 3.0, "steps": 7, "scale": "log"}}),
            # the default gamma grid, 0:n+1:121, is recorded as the grid used
            (["model-curves", "--n", "3", "--n-max", "1", "--igamma-out", "{out}",
              "--mi-out", "{out}.mi"],
             {"gamma_grid": {"lo": 0.0, "hi": 4.0, "steps": 121, "scale": "linear"}}),
        ]
        for i, (argv, specs) in enumerate(runs):
            out = tmp_path / f"{i}.csv"
            code, _, _ = run(capsys, [a.format(out=out) for a in argv])
            assert code == 0
            manifest = json.loads((tmp_path / f"{i}.csv.manifest.json").read_text())
            for name, spec in specs.items():
                assert manifest["args"][name] == spec

    @pytest.mark.parametrize("kind", ["bayes-mi", "bayes-egamma"])
    def test_large_model_runs(self, capsys, kind):
        # from n = 1030 the binomial coefficients overflow a float
        code, out, err = run(capsys, ["bound", kind, "--bu-n", "2000", "--n", "5", "--eps", "1"])
        assert code == 0, err
        payload = json.loads(out)
        assert math.isfinite(payload["value"]) and payload["value"] >= 0.0
        assert payload["inputs"]["bu_model"] == {"n": 2000, "panels": 20000}

    @pytest.mark.parametrize("kind", ["bayes-mi", "bayes-egamma"])
    def test_model_flags_are_checked_with_explicit_info(self, capsys, kind):
        # --info replaces the model's information, not the checks on its flags
        argv = ["bound", kind, "--info", "0.1", "--eps", "1"]
        err = run_error(capsys, [*argv, "--bu-n", "-5", "--bu-panels", "3"])
        assert "sample size n must be >= 1, got -5" in err
        assert "panels must be even" in run_error(capsys, [*argv, "--bu-panels", "3"])

    @pytest.mark.parametrize("n, message", [
        ("2", "panels must be even and >= 2, got 3"),
        ("0", "sample size n must be >= 1, got 0"),  # n is checked first
    ])
    @pytest.mark.parametrize("command", [["figure1", "--n"], ["bound", "bayes-gammaopt", "--bu-n"]])
    def test_panels_flag_is_checked_after_n(self, capsys, command, n, message):
        panels = "--panels" if command[0] == "figure1" else "--bu-panels"
        assert run_error(capsys, [*command, n, panels, "3"]) == f"error: {message}\n"

    def test_gammaopt_shares_the_model_flags(self, capsys):
        helps = {}
        for kind in ("bayes-mi", "bayes-gammaopt"):
            with pytest.raises(SystemExit):
                main(["bound", kind, "--help"])
            helps[kind] = capsys.readouterr().out
        for text in helps.values():
            assert re.search(r"--bu-n BU_N\s+Bernoulli-uniform sample size", text)
            assert re.search(r"--bu-panels BU_PANELS\s+former quadrature panel count", text)

    @pytest.mark.parametrize("kind", ["bayes-mi", "bayes-egamma"])
    def test_n_help_says_a_differing_n_is_flagged(self, capsys, kind):
        with pytest.raises(SystemExit):
            main(["bound", kind, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert ("--n N sample size n of the contraction coefficient; without --info, "
                "a value other than --bu-n is flagged n-differs-from-bu-n") in text

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


class TestModelCurves:
    def test_curves_are_the_library_values(self, capsys, tmp_path):
        igamma_out, mi_out = tmp_path / "igamma.csv", tmp_path / "mi.csv"
        code, _, err = run(
            capsys,
            ["model-curves", "--n", "4", "--gamma-grid", "0:5:11", "--n-max", "5",
             "--igamma-out", str(igamma_out), "--mi-out", str(mi_out)],
        )
        assert code == 0, err
        gammas = GridSpec(0.0, 5.0, 11).points()
        igamma = bu_igamma(BernoulliUniformModel(4), gammas)
        write_csv(tmp_path / "igamma_ref.csv", ["gamma", "igamma"],
                  [[float(g), float(ig)] for g, ig in zip(gammas, igamma)])
        write_csv(tmp_path / "mi_ref.csv", ["n", "mutual_information"],
                  [[float(m), bu_mutual_information(BernoulliUniformModel(m))]
                   for m in range(1, 6)])
        assert igamma_out.read_bytes() == (tmp_path / "igamma_ref.csv").read_bytes()
        assert mi_out.read_bytes() == (tmp_path / "mi_ref.csv").read_bytes()

    def test_n_max_is_capped(self, capsys, tmp_path, monkeypatch):
        import ldpkit.cli

        monkeypatch.setattr(ldpkit.cli, "MAX_CURVE_N", 3)
        outs = ["--igamma-out", str(tmp_path / "i.csv"), "--mi-out", str(tmp_path / "m.csv")]
        err = run_error(capsys, ["model-curves", "--n", "2", "--n-max", "4", *outs])
        assert err == "error: n-max = 4 is over the cap 3\n"
        err = run_error(capsys, ["model-curves", "--n", "2", "--n-max", "0", *outs])
        assert err == "error: n-max must be >= 1, got 0\n"
        assert list(tmp_path.iterdir()) == []
        code, _, err = run(capsys, ["model-curves", "--n", "2", "--n-max", "3", *outs])
        assert code == 0, err
        assert len((tmp_path / "m.csv").read_text().splitlines()) == 4

    # Sizes are refused before any work: --n-max 1000001 otherwise runs for
    # hours, and no CSV is written.
    @pytest.mark.parametrize(
        "flags",
        [["--n", "0"], ["--gamma-grid=0:-1:121"], ["--gamma-grid", "0:6:-1"],
         ["--n", "2000000"], ["--gamma-grid", "0:6:2000000"], ["--n-max", "1000001"],
         ["--n-max", "0"]],
    )
    def test_rejects_bad_flags_in_one_line(self, capsys, tmp_path, flags):
        run_error(capsys, ["model-curves", *flags, "--igamma-out", str(tmp_path / "i.csv"),
                           "--mi-out", str(tmp_path / "m.csv")])
        assert list(tmp_path.iterdir()) == []

    def test_bu_work_is_capped_before_the_grid_is_built(self, capsys, tmp_path, monkeypatch):
        def unbuilt(grid):
            raise AssertionError("the gamma grid was built")

        monkeypatch.setattr(GridSpec, "points", unbuilt)
        err = run_error(capsys, ["model-curves", "--n", "1000000", "--gamma-grid", "0:6:1000000",
                                 "--igamma-out", str(tmp_path / "i.csv"),
                                 "--mi-out", str(tmp_path / "m.csv")])
        assert err == ("error: 1000000 gammas x 1000000 x 1000 (n x ceil(sqrt n)) = "
                       "1000000000000000 is over the cap 1000000000\n")

    @pytest.mark.parametrize("mi_out", ["a.csv", "./a.csv", "{tmp}/out/a.csv", "../out/a.csv"])
    def test_one_file_for_both_curves_is_one_error_line(self, capsys, tmp_path, monkeypatch,
                                                        mi_out):
        # relative paths resolve against $LDPKIT_OUT_DIR, so all four name one file
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("LDPKIT_OUT_DIR", str(tmp_path / "out"))
        mi_out = mi_out.format(tmp=tmp_path)
        err = run_error(capsys, ["model-curves", "--igamma-out", "a.csv", "--mi-out", mi_out])
        assert err == f"error: --igamma-out and --mi-out are the same file: {mi_out}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "igamma_out, mi_out, message",
        [("a.csv.manifest.json", "a.csv",
          "--igamma-out and the --mi-out manifest are the same file: a.csv.manifest.json"),
         ("a.csv.manifest.json", "../out/a.csv",
          "--igamma-out and the --mi-out manifest are the same file: ../out/a.csv.manifest.json"),
         ("a.csv", "a.csv.manifest.json",
          "the --igamma-out manifest and --mi-out are the same file: a.csv.manifest.json"),
         ("../out/a.csv", "{tmp}/out/a.csv.manifest.json",
          "the --igamma-out manifest and --mi-out are the same file: "
          "{tmp}/out/a.csv.manifest.json")],
    )
    def test_one_curve_may_not_overwrite_the_other_manifest(self, capsys, tmp_path, monkeypatch,
                                                            igamma_out, mi_out, message):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("LDPKIT_OUT_DIR", str(tmp_path / "out"))
        argv = ["model-curves", "--igamma-out", igamma_out, "--mi-out", mi_out]
        err = run_error(capsys, [a.format(tmp=tmp_path) for a in argv])
        assert err == f"error: {message.format(tmp=tmp_path)}\n"
        assert list(tmp_path.iterdir()) == []


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

    @pytest.mark.parametrize(
        "alpha, message",
        [("inf", "must be finite, got inf"), ("nan", "must be > 0, got nan"),
         ("0", "must be > 0, got 0.0")],
        ids=["inf", "nan", "0"],
    )
    def test_eta_f_rejects_unusable_dirichlet_alpha(self, capsys, rr1_file, alpha, message):
        err = run_error(capsys, ["oracle", "eta-f", str(rr1_file), "--f", "kl", "--alpha", alpha])
        assert err == f"error: dirichlet_alpha {message}\n"

    def test_eta_f_without_point_masses(self, capsys, tmp_path):
        # eta_TV is attained at a point-mass pair, which the flag leaves out;
        # on binary and k-RR kernels every sampled pair attains it as well.
        k = Kernel(np.random.default_rng(3).dirichlet(np.ones(5), size=4))
        path = tmp_path / "k.json"
        path.write_text(kernel_json(k))
        argv = ["oracle", "eta-f", str(path), "--f", "tv", "--trials", "50"]
        values = [json.loads(run(capsys, a)[1])["eta_estimate"]
                  for a in (argv, [*argv, "--no-point-masses"])]
        cfg = SearchConfig(DEFAULT_SEED, 50, include_point_masses=False)
        assert values[1] == brute_eta_f(k, FGenerator("tv"), cfg)
        assert values[1] < values[0]

    @pytest.mark.parametrize(
        "flags",
        [["--f", "egamma", "--gamma", "nan"], ["--f", "kl", "--gamma", "2"]],
        ids=["egamma-nan", "kl-gamma"],
    )
    def test_eta_f_rejects_nan_gamma(self, capsys, rr1_file, flags):
        run_error(capsys, ["oracle", "eta-f", str(rr1_file), *flags])

    @pytest.mark.parametrize("f", ["tv", "hellinger_sq", "kl", "chi2"])
    def test_eta_f_on_disjoint_rows_is_at_most_one(self, capsys, tmp_path, f):
        rng = np.random.default_rng(0)
        rows = np.zeros((2, 6))
        rows[0, :3], rows[1, 3:] = rng.dirichlet(np.ones(3), size=2)
        path = tmp_path / "disjoint.json"
        path.write_text(kernel_json(Kernel(rows)))
        code, out, err = run(capsys, ["oracle", "eta-f", str(path), "--f", f, "--trials", "50"])
        assert code == 0, err
        assert json.loads(out)["eta_estimate"] <= 1.0

    def test_profile_check(self, capsys, rr1_file):
        code, out, _ = run(
            capsys, ["oracle", "profile-check", str(rr1_file), "--epsilon", "0.5"]
        )
        payload = json.loads(out)
        assert payload["delta"] == pytest.approx(payload["delta_formula"], abs=1e-12)

    @pytest.mark.parametrize("shape", [(1000, 20), (10**4, 4)])
    def test_profile_check_work_cap_is_one_error_line(self, capsys, tmp_path, shape):
        path = tmp_path / "tall.json"
        path.write_text(kernel_json(Kernel(np.full(shape, 1.0 / shape[1]))))
        err = run_error(capsys, ["oracle", "profile-check", str(path), "--epsilon", "1"])
        assert err.endswith(f"is over the cap {MAX_PROFILE_WORK}\n")


@pytest.mark.parametrize(
    "argv", [["audit", "--epsilon", "1", "--delta", "0.1"], ["oracle", "eta-f", "--f", "tv"]]
)
def test_negative_seed_is_one_error_line(capsys, rr1_file, argv):
    err = run_error(capsys, [*argv, str(rr1_file), "--seed", "-1"])
    assert err == "error: seed must be >= 0, got -1\n"


# audit checks --seed and --trials even when no --delta runs the verifier.
@pytest.mark.parametrize(
    "argv, message",
    [
        (["--epsilon", "1", "--seed", "-1", "--trials", "0"], "seed must be >= 0, got -1"),
        (["--epsilon", "1", "--trials", "0"], "trials must be >= 1, got 0"),
        (["--profile-grid", "0:3:4", "--out", "p.csv", "--seed", "-1", "--trials", "-7"],
         "seed must be >= 0, got -1"),
        # with two bad flags, the first in audit's check order is named:
        # epsilon, delta, seed and trials, then the profile grid
        (["--profile-grid", "0:800:3", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["--epsilon", "1", "--profile-grid", "0:800:3", "--trials", "0"],
         "trials must be >= 1, got 0"),
        (["--epsilon", "1e6", "--seed", "-1"],
         "epsilon = 1000000.0 is too large: e^epsilon overflows"),
        (["--epsilon", "1", "--delta", "1.5", "--seed", "-1"], "delta must be in [0, 1], got 1.5"),
    ],
)
def test_audit_checks_seed_and_trials_without_the_verifier(
    capsys, rr1_file, tmp_path, monkeypatch, argv, message
):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("LDPKIT_OUT_DIR", raising=False)
    assert run_error(capsys, ["audit", str(rr1_file), *argv]) == f"error: {message}\n"
    assert not (tmp_path / "p.csv").exists()


# epsilon and delta are checked before the kernel file is read, so with a
# bad file as well, the flag is named.
@pytest.mark.parametrize(
    "name, text, argv, message",
    [
        ("bad.csv", "0.5,abc\n", ["--epsilon", "1e6"],
         "epsilon = 1000000.0 is too large: e^epsilon overflows"),
        ("missing.json", None, ["--epsilon", "1", "--delta", "2"],
         "delta must be in [0, 1], got 2.0"),
    ],
    ids=["epsilon-over-malformed", "delta-over-missing"],
)
def test_audit_names_a_bad_epsilon_or_delta_before_a_bad_file(
    capsys, tmp_path, name, text, argv, message
):
    if text is not None:
        (tmp_path / name).write_text(text)
    assert run_error(capsys, ["audit", str(tmp_path / name), *argv]) == f"error: {message}\n"


# Each sample array is capped at MAX_SAMPLES entries before it is drawn,
# also past numpy's largest array (10**18 trials on 2 inputs) and index type.
@pytest.mark.parametrize("trials", [10**15, 10**30, 10**18])
@pytest.mark.parametrize(
    "argv", [["audit", "--epsilon", "1", "--delta", "0"], ["oracle", "eta-f", "--f", "tv"]]
)
def test_oversized_trials_is_one_error_line(capsys, rr1_file, argv, trials):
    assert "over the cap" in run_error(capsys, [*argv, str(rr1_file), "--trials", str(trials)])


def test_out_of_memory_is_one_error_line(capsys, monkeypatch):
    import ldpkit.info

    def exhausted(model):
        raise MemoryError("Unable to allocate 8.00 EiB")

    monkeypatch.setattr(ldpkit.info, "bu_mutual_information", exhausted)
    err = run_error(capsys, ["remark"])
    assert err == "error: out of memory: Unable to allocate 8.00 EiB\n"


class TestOutputDirEnv:
    def test_relative_paths_resolve_against_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("LDPKIT_OUT_DIR", str(tmp_path))
        code, _, _ = run(
            capsys,
            ["audit", str(tmp_path / "k.json"), "--profile-grid", "0:1:3", "--out", "p.csv"],
        )
        # kernel file missing, exit 1; write it and retry
        (tmp_path / "k.json").write_text(kernel_json(k_rr(1.0, 3)))
        code, _, _ = run(
            capsys,
            ["audit", str(tmp_path / "k.json"), "--profile-grid", "0:1:3", "--out", "p.csv"],
        )
        assert code == 0
        assert (tmp_path / "p.csv").exists()


def test_cli_imports_nothing_beyond_numpy_and_the_standard_library():
    # ldpkit.cli imports its modules inside its commands, so all of them are imported here.
    code = (
        "import importlib, sys, numpy; before = set(sys.modules); import ldpkit; "
        "[importlib.import_module(f'ldpkit.{m}') for m in [*ldpkit._EXPORTS, 'cli']]; "
        "new = {name.partition('.')[0] for name in set(sys.modules) - before}; "
        "print(sorted(new - set(sys.stdlib_module_names) - {'ldpkit'}))"
    )
    env = dict(os.environ, PYTHONPATH=ldpkit_path())
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


_SCALAR_BOUNDS = {
    "lecam": ["--tau", "1", "--kl", "0.1", "--n", "10"],
    "moment": ["--k-moment", "2", "--n", "4"],
    "fano": ["--v-count", "64", "--avg-kl", "0.01", "--tau", "0.5", "--n", "20"],
    "highdim": ["--d", "8", "--r", "1", "--n", "64"],
    "ht": ["--kl", "1"],
    "micap": ["--entropy", "1"],
}

# A linear epsilon sweep of a closed-form kind is computed without numpy; a
# log sweep is np.geomspace, and the bayes kinds compute with arrays.
_CSV_SWEEP = ["--out", "s.csv", "--sweep", "epsilon"]


# Kernel files whose text is not rows, as the perfbench cli workload writes
# them; sum.csv parses, but its row 1 sums to 1.2.
_KERNEL_TEXTS = {
    "token.csv": "0.5,abc\n0.5,0.5\n",
    "truncated.json": '{"rows": [[0.5, 0.5], [0.2',
    "array.json": "[[0.5, 0.5], [0.2, 0.8]]\n",
    "sum.csv": "0.5,0.5\n0.6,0.6\n",
}
_UNPARSEABLE = ["token.csv", "truncated.json", "array.json"]


def _loaded_at_exit(tmp_path, argv, code, names) -> set[str]:
    """Those of ``names`` in sys.modules when ``ldpkit argv`` exits with ``code``, run by a
    fresh interpreter in tmp_path beside k.json (randomized response) and _KERNEL_TEXTS."""
    (tmp_path / "k.json").write_text(kernel_json(randomized_response(1.0)))
    for name, text in _KERNEL_TEXTS.items():
        (tmp_path / name).write_text(text)
    script = (
        f"import atexit, sys; atexit.register(lambda: print(*set({names!r}) & set(sys.modules))); "
        "from ldpkit.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    env = dict(os.environ, PYTHONPATH=ldpkit_path())
    result = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, timeout=60,
        env=env, cwd=tmp_path,
    )
    assert result.returncode == code, result.stderr
    return set(result.stdout.splitlines()[-1].split())


@pytest.mark.parametrize(
    "argv, code, loads_numpy",
    [(["--version"], 0, False), (["--help"], 0, False),
     (["audit", "k.json", "--epsilon", "abc"], 1, False)]
    + [(["bound", kind, *flags, "--eps", "1"], 0, False) for kind, flags in _SCALAR_BOUNDS.items()]
    + [(["bound", kind, *flags, "--eps", "1", *_CSV_SWEEP, "0.1:3:30"], 0, False)
       for kind, flags in _SCALAR_BOUNDS.items()]
    + [(["bound", "moment", *_SCALAR_BOUNDS["moment"], "--eps", "1", *_CSV_SWEEP, "0.1:3:30:log"],
        0, True),
       (["bound", "bayes-egamma", "--bu-n", "2", "--eps", "1", *_CSV_SWEEP, "0.1:3:3"], 0, True)]
    + [(["audit", "k.json", "--epsilon", "1"], 0, True)]
    + [(["audit", name, "--epsilon", "1"], 1, False) for name in _UNPARSEABLE]
    + [(["audit", "k.json", "--epsilon", "1e6"], 1, False),
       (["audit", "k.json", "--epsilon", "1", "--delta", "2"], 1, False),
       (["oracle", "eta-f", "token.csv", "--f", "tv"], 1, False),
       (["oracle", "profile-check", "token.csv", "--epsilon", "1"], 1, False),
       (["audit", "sum.csv", "--epsilon", "1"], 1, True)],
    ids=["version", "help", "rejected-argv", *_SCALAR_BOUNDS]
    + [f"{kind}-sweep" for kind in _SCALAR_BOUNDS] + ["moment-log-sweep", "bayes-egamma-sweep"]
    + ["audit"] + [f"audit-{name}" for name in _UNPARSEABLE]
    + ["audit-epsilon-overflow", "audit-delta", "eta-f-token.csv", "profile-check-token.csv",
       "audit-row-sum"],
)
def test_only_commands_that_compute_with_arrays_load_numpy(tmp_path, argv, code, loads_numpy):
    assert ("numpy" in _loaded_at_exit(tmp_path, argv, code, ["numpy"])) == loads_numpy


# What cli.py imports inside its commands, not at its top.
_DEFERRED = ["ldpkit.bounds", "ldpkit.contraction", "ldpkit.kernel", "dataclasses", "json"]


@pytest.mark.parametrize(
    "argv, code, unloaded",
    [(["--version"], 0, _DEFERRED), (["--help"], 0, _DEFERRED),
     (["audit", "k.json", "--epsilon", "abc"], 1, _DEFERRED)]
    + [(["audit", name, "--epsilon", "1"], 1, ["ldpkit.bounds"]) for name in _UNPARSEABLE]
    + [(["bound", kind, *flags, "--eps", "1"], 0, ["ldpkit.kernel"])
       for kind, flags in _SCALAR_BOUNDS.items()],
    ids=["version", "help", "rejected-argv", *(f"audit-{name}" for name in _UNPARSEABLE),
         *_SCALAR_BOUNDS],
)
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, code, unloaded):
    assert _loaded_at_exit(tmp_path, argv, code, unloaded) == set()
