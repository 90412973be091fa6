import csv
import io
import json
from dataclasses import asdict

import numpy as np
import pytest

import qrex.classical
import qrex.hamiltonians
import qrex.harness
import qrex.lindblad
import qrex.mixing
import qrex.replica
import qrex.spectral
import qrex.verify
from qrex.cli import build_parser, main
from qrex.hamiltonians import defected_heisenberg_2d, defected_ising_1d
from qrex.harness import (
    ConfigError,
    Report,
    ResourceGuardError,
    _sweep_point,
    build_system,
    emit,
    parse_config,
    render_csv,
    run_scenario,
    validate_config,
)
from qrex.lindblad import QUAD_ABS_TOL, WeightFunction
from qrex.spectral import HERMITICITY_TOL, KERNEL_TOL

from oracles import partial_lindbladian_check


# a raw open chain -Z0 Z1 - Z1 Z2, with no partition
RAW_CHAIN = [{"coeff": -1.0, "paulis": [[0, "Z"], [1, "Z"]]},
             {"coeff": -1.0, "paulis": [[1, "Z"], [2, "Z"]]}]
# -X0 Y1 - Z1 Z2 - 0.5 X2: the Y term makes H, its eigenbasis and the generator complex
COMPLEX_CHAIN = [{"coeff": -1.0, "paulis": [[0, "X"], [1, "Y"]]},
                 {"coeff": -1.0, "paulis": [[1, "Z"], [2, "Z"]]},
                 {"coeff": -0.5, "paulis": [[2, "X"]]}]


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestParseConfig:
    def test_minimal_valid(self, tmp_path):
        path = write_config(tmp_path, {"scenario": "gap"})
        config = parse_config(path)
        assert config.scenario == "gap"
        assert config.seed == 42
        assert config.beta == 1.0

    def test_unknown_scenario_names_field(self, tmp_path):
        path = write_config(tmp_path, {"scenario": "warp"})
        with pytest.raises(ConfigError, match="scenario"):
            parse_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(str(tmp_path / "nope.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            parse_config(str(path))

    def test_bad_weight(self, tmp_path):
        path = write_config(tmp_path, {"weight": "boltzmann"})
        with pytest.raises(ConfigError, match="weight"):
            parse_config(path)

    def test_couplings_field_rejected(self, tmp_path):
        # the generators always couple through every single-site Pauli, so a
        # coupling choice would be silently ignored
        path = write_config(tmp_path, {"couplings": {"sites": [0, 1]}})
        with pytest.raises(ConfigError, match="couplings"):
            parse_config(path)
        assert "couplings" not in asdict(validate_config({}))

    def test_bad_sweep_param(self, tmp_path):
        path = write_config(tmp_path, {"sweep": {"param": "gamma", "values": [1]}})
        with pytest.raises(ConfigError, match="sweep.param"):
            parse_config(path)

    def test_sweep_plan_expansion(self, tmp_path):
        path = write_config(tmp_path, {
            "scenario": "sweep",
            "sweep": {"param": "J", "values": [1.0, 2.0, 3.0, 4.0, 5.0]},
            "replica": {"mode": "none"},
        })
        config = parse_config(path)
        report = run_scenario(config)
        assert len(report.records) == 5
        assert [r["J"] for r in report.records] == [1.0, 2.0, 3.0, 4.0, 5.0]


class TestBuildSystem:
    def test_named_ising(self):
        config = validate_config({"system": {"model": "defected_ising", "n": 4, "J": 2.5}})
        spec = build_system(config)
        assert spec.n == 4
        assert spec.defect == ((0, 1), 2.5)

    def test_raw_fragment_roundtrip(self):
        raw = {
            "system": {
                "n": 2,
                "terms": [{"coeff": -2.0, "paulis": [[0, "Z"], [1, "Z"]]}],
                "partition": {"A": [0]},
                "defect": {"edge": [0, 1], "J": 2.0},
            }
        }
        spec = build_system(validate_config(raw))
        assert spec.n == 2
        assert spec.partition == ((0,), (1,))

    def test_raw_fragment_j_override(self):
        raw = {
            "system": {
                "n": 2,
                "terms": [{"coeff": -2.0, "paulis": [[0, "Z"], [1, "Z"]]}],
                "defect": {"edge": [0, 1], "J": 2.0},
            }
        }
        spec = build_system(validate_config(raw), J=5.0)
        assert spec.terms[0].coefficient == -5.0


class TestResourceGuard:
    def test_oversized_joint_blocked(self):
        config = validate_config({
            "scenario": "gap",
            "system": {"model": "defected_heisenberg", "rows": 2, "cols": 3,
                       "A": [0, 3], "defect_edge": [0, 3], "J": 3.0},
        })
        with pytest.raises(ResourceGuardError):
            run_scenario(config)

    def test_override_allows_single_system(self):
        config = validate_config({
            "scenario": "gap",
            "system": {"model": "defected_ising", "n": 3, "J": 2.0},
            "replica": {"mode": "none"},
            "max_dim": 64,
        })
        report = run_scenario(config)
        assert report.records[0]["gap"] > 0


class TestSweepGB:
    """g_B of a local_A sweep point: one A-diagonal restriction, equal to the pinned-A oracle."""

    @staticmethod
    def point(system, beta, J):
        config = validate_config({"scenario": "sweep", "system": system, "beta": beta,
                                  "replica": {"mode": "local_A"}, "max_dim": 2**20,
                                  "sweep": {"param": "J", "values": [J]}})
        return _sweep_point((config, J))

    def test_four_generator_builds_per_point(self, monkeypatch):
        calls = []
        original = qrex.lindblad.build_ckg_generator

        def spy(*args, **kwargs):
            calls.append(args[0].dim)
            return original(*args, **kwargs)

        for module in (qrex.lindblad, qrex.harness, qrex.replica, qrex.spectral):
            monkeypatch.setattr(module, "build_ckg_generator", spy)
        self.point({"model": "defected_ising", "n": 3, "J": 3.0}, 1.0, 3.0)
        # single system, joint system and auxiliary pieces, B-site restriction
        assert len(calls) == 4

    def test_one_labeled_eigensystem_and_two_assemblies_per_point(self, monkeypatch):
        n = 3
        assembled, labeled = [], []
        assemble, eigenpairs = qrex.hamiltonians.assemble_dense, qrex.lindblad.Eigensystem

        def assemble_spy(spec):
            assembled.append(spec.n)
            return assemble(spec)

        def eigenpairs_spy(lam, U):
            if np.size(lam) == 2**n:  # the labeled system eigensystem (not the A side's)
                labeled.append(U)
            return eigenpairs(lam, U)

        for module in (qrex.hamiltonians, qrex.harness, qrex.replica, qrex.verify):
            monkeypatch.setattr(module, "assemble_dense", assemble_spy, raising=False)
        # qrex.lindblad.eigensystem diagonalizes H itself and is not counted
        for module in (qrex.replica, qrex.spectral):
            monkeypatch.setattr(module, "Eigensystem", eigenpairs_spy, raising=False)
        self.point({"model": "defected_ising", "n": n, "J": 3.0}, 1.0, 3.0)
        # the single-system gap and the cut analysis; the joint structure takes
        # the cut's permuted H and holds the labeled eigensystem
        assert len(assembled) == 2
        assert len(labeled) == 1

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("J", [1.0, 5.0])
    def test_ring_g_b_matches_pinned_oracle(self, n, J):
        rec = self.point({"model": "defected_ising", "n": n, "J": J}, 1.0, J)
        oracle = partial_lindbladian_check(defected_ising_1d(n, J), WeightFunction("gaussian", 1.0))
        assert rec["g_B"] == pytest.approx(oracle["g_b"], rel=1e-12)

    def test_heisenberg_grid_g_b_matches_pinned_oracle(self):
        system = {"model": "defected_heisenberg", "rows": 2, "cols": 3, "A": [0, 3],
                  "defect_edge": [0, 3], "J": 4.0}
        rec = self.point(system, 0.05, 4.0)
        spec = defected_heisenberg_2d(2, 3, (0, 3), (0, 3), 4.0)
        oracle = partial_lindbladian_check(spec, WeightFunction("gaussian", 0.05))
        assert rec["g_B"] == pytest.approx(oracle["g_b"], rel=1e-12)
        # the grid's A-first site order (0, 3, 1, 2, 4, 5) is not the identity, so these
        # pinned gaps (from the dense permutation-matrix route) guard the index permutation
        assert rec["gap_single"] == pytest.approx(1.9320819882345683, rel=1e-10)
        assert rec["gap_re"] == pytest.approx(1.8534721149994677, rel=1e-10)

    def test_verification_builds_one_joint_structure(self, monkeypatch):
        calls = []
        original = qrex.replica.joint_structure

        def spy(spec):
            calls.append(spec.n)
            return original(spec)

        for module in (qrex.replica, qrex.verify):
            monkeypatch.setattr(module, "joint_structure", spy)
        rows = qrex.verify.run_verification()
        assert all(row["passed"] for row in rows)
        assert len(calls) == 1

    def test_verification_assembles_and_builds_once_each(self, monkeypatch):
        # the cut check reads the joint structure's cut and the Metropolis n = 3
        # generator is built once for every check that uses it
        counts = {"assemble_dense": 0, "build_ckg_generator": 0}
        modules = (qrex.hamiltonians, qrex.lindblad, qrex.harness, qrex.mixing, qrex.replica,
                   qrex.spectral, qrex.verify)
        for name, owner in (("assemble_dense", qrex.hamiltonians),
                            ("build_ckg_generator", qrex.lindblad)):
            original = getattr(owner, name)

            def spy(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            for module in modules:
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, spy)
        rows = qrex.verify.run_verification()
        assert len(rows) == 25 and all(row["passed"] for row in rows)
        assert counts == {"assemble_dense": 4, "build_ckg_generator": 6}


class TestTheoremBound:
    """The main theorem's bound as a property of local_A sweeps.

    The theorem reads gap_re >= min(g_B, 1) / (4 d_A exp(4 beta K V_max));
    ``bound_ratio`` is gap_re over that bound without its 1/4, so the bound
    holds where the ratio is at least 0.25.
    """

    @staticmethod
    def ratios(system, beta, weight, values):
        config = validate_config({"scenario": "sweep", "system": system, "beta": beta,
                                  "replica": {"mode": "local_A", "weight": weight},
                                  "sweep": {"param": "J", "values": values}, "max_dim": 2**16})
        return [rec["bound_ratio"] for rec in run_scenario(config).records]

    @pytest.mark.parametrize("weight", ["gaussian", "metropolis"])
    @pytest.mark.parametrize("beta", [0.5, 1.0])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_ring(self, n, beta, weight):
        system = {"model": "defected_ising", "n": n, "J": 3.0}
        assert min(self.ratios(system, beta, weight, [1.0, 2.5, 5.0])) >= 0.25

    def test_heisenberg_grid(self):
        system = {"model": "defected_heisenberg", "rows": 2, "cols": 3, "A": [0, 3],
                  "defect_edge": [0, 3], "J": 3.0}
        assert min(self.ratios(system, 0.05, "gaussian", [1.0, 5.0])) >= 0.25

    def test_summary_reads_the_resolved_points(self):
        # at beta = 2 the joint gap of the n = 3 ring is unresolved; the sweep keeps
        # the point and the summary's minimum ratio reads the other two
        config = validate_config({"scenario": "sweep",
                                  "system": {"model": "defected_ising", "n": 3, "J": 3.0},
                                  "replica": {"mode": "local_A"},
                                  "sweep": {"param": "beta", "values": [0.5, 1.0, 2.0]}})
        report = run_scenario(config)
        assert [r["status"] for r in report.records] == ["ok", "ok", "unresolved"]
        assert [r["error"] for r in report.records[:2]] == ["", ""]
        last = report.records[2]
        assert last["beta"] == 2.0 and last["error"].startswith("ambiguous kernel cluster: gap ")
        assert all(np.isnan(last[k]) for k in ("gap_single", "gap_re", "g_B", "bound_ratio"))
        ratios = [r["bound_ratio"] for r in report.records[:2]]
        summary = json.loads(emit(report, "json", None))["summary"]
        assert summary["bound_ratio_min"] == min(ratios) >= 0.25
        assert summary["bound_holds"] is True

    def test_summary_has_no_bound_without_local_a(self):
        config = validate_config({"scenario": "sweep", "replica": {"mode": "none"},
                                  "sweep": {"param": "J", "values": [1.0, 2.0]}})
        summary = run_scenario(config).summary
        assert "bound_ratio_min" not in summary and "bound_holds" not in summary


class TestDeterminism:
    def test_identical_records_across_runs(self):
        config = validate_config({
            "scenario": "sweep",
            "sweep": {"param": "J", "values": [1.0, 3.0]},
        })
        rep1 = run_scenario(config)
        rep2 = run_scenario(config)
        assert rep1.records == rep2.records

    def test_csv_bytes_stable(self):
        config = validate_config({"scenario": "theta"})
        text1 = render_csv(run_scenario(config))
        text2 = render_csv(run_scenario(config))
        assert text1 == text2

    def test_mixing_seeded(self):
        config = validate_config({
            "scenario": "mixing",
            "system": {"model": "defected_ising", "n": 3, "J": 2.0},
        })
        rep1 = run_scenario(config)
        rep2 = run_scenario(config)
        assert rep1.records == rep2.records


class TestScenarios:
    def test_mixing_summary_reports_search_work(self):
        # the n = 5 family is 64 population states, then 20 Haar states that
        # occupy every block: two chunks at the default budget
        config = validate_config({"scenario": "mixing", "replica": {"mode": "none"},
                                  "system": {"model": "defected_ising", "n": 5, "J": 3.0}})
        report = run_scenario(config)
        summary = json.loads(emit(report, "json", None))["summary"]
        assert summary["chunks"] == 2
        assert summary["rounds"] > 0
        assert summary["eigensolves"] == 0  # the sandwich decides every test on the ring
        assert render_csv(report).startswith("state_id,t_cross\ncomp_0,")

    def test_gap_report_shows_the_block_pairing(self):
        # the n = 5 ring's L_hat has 243 blocks; one of each conjugate pair is
        # solved, 122 with the self-paired population block of side 32
        config = validate_config({"scenario": "gap", "replica": {"mode": "none"},
                                  "system": {"model": "defected_ising", "n": 5, "J": 3.0}})
        report = run_scenario(config)
        record = json.loads(emit(report, "json", None))["records"][0]
        assert (record["blocks"], record["blocks_solved"], record["largest_block"]) \
            == (243, 122, 32)
        assert render_csv(report).startswith("J,beta,gap,kernel_dim,kms_norm,eigs,tol\n3.0,")

    @pytest.mark.parametrize("system, arithmetic", [
        ({"model": "defected_ising", "n": 3, "J": 3.0}, "real"),
        ({"n": 3, "terms": COMPLEX_CHAIN}, "complex"),
    ], ids=["ring", "complex"])
    def test_gap_report_names_its_arithmetic(self, system, arithmetic):
        # the JSON record says whether L_hat was real; the CSV columns stay as they were
        config = validate_config({"scenario": "gap", "replica": {"mode": "none"},
                                  "system": system})
        report = run_scenario(config)
        assert json.loads(emit(report, "json", None))["records"][0]["arithmetic"] == arithmetic
        assert render_csv(report).startswith("J,beta,gap,kernel_dim,kms_norm,eigs,tol\n")

    def test_theta_scenario_shape_and_accuracy(self):
        config = validate_config({"scenario": "theta"})
        report = run_scenario(config)
        assert len(report.records) == 401
        assert report.summary["max_abs_diff"] < 1e-8
        xs = [r["beta_omega"] for r in report.records]
        assert xs[0] == -20.0 and xs[-1] == 20.0

    def test_beta_sweep(self):
        config = validate_config({
            "scenario": "sweep",
            "sweep": {"param": "beta", "values": [0.5, 1.0]},
            "replica": {"mode": "none"},
        })
        report = run_scenario(config)
        assert [r["beta"] for r in report.records] == [0.5, 1.0]

    def test_verify_scenario_reports_all_green(self):
        config = validate_config({"scenario": "verify"})
        report = run_scenario(config)
        assert report.summary["passed"]
        assert report.summary["n_failed"] == 0
        assert all(set(r) == {"check", "passed", "detail"} for r in report.records)

    def test_verify_keeps_its_report_when_a_gap_is_unresolved(self):
        # at beta = 2 the local_A joint gap of the n = 3 ring sits within 10x of
        # the kernel threshold; verify once stopped there and printed no row
        names = [r["check"] for r in qrex.verify.run_verification(beta=1.0)]
        rows = qrex.verify.run_verification(beta=2.0)
        assert len(rows) == 25 and [r["check"] for r in rows] == names
        failed = {r["check"]: r["detail"] for r in rows if not r["passed"]}
        assert list(failed) == ["replica.joint_kernel_dim"]
        assert failed["replica.joint_kernel_dim"].startswith(
            "numerical error: ambiguous kernel cluster: gap ")

    def test_verify_makes_no_joint_size_congruence(self):
        # the swap generators are compared in their shared labeled basis, and
        # the spectrum check compares eigenvalues of the stored matrix, so no
        # basis change is needed: congruence is a test oracle, and no module
        # of the package defines it (a joint-size one would have side 32^2 = 1024)
        import qrex.verify

        modules = (qrex.lindblad, qrex.mixing, qrex.verify, qrex.replica, qrex.spectral)
        assert not any(hasattr(module, "congruence") for module in modules)
        results = qrex.verify.run_verification()
        assert len(results) == 25 and all(r["passed"] for r in results)


    def test_verification_decomposes_each_generator_once(self, monkeypatch):
        # 5 distinct generators, each scaled once: the swap's one sector
        # analysis and the ring's chi-square gap and fit share theirs; the swap
        # carries the joint Gibbs state, and the local_A generator the product
        # of its two factors' states
        counted = {"symmetrize": qrex.spectral, "block_eigh": qrex.spectral,
                   "swap_generator_closed_form": qrex.replica, "joint_gibbs": qrex.replica}
        counts = dict.fromkeys(counted, 0)
        modules = (qrex.hamiltonians, qrex.lindblad, qrex.harness, qrex.mixing, qrex.replica,
                   qrex.spectral, qrex.verify)
        for name, owner in counted.items():
            original = getattr(owner, name)

            def spy(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            for module in modules:
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, spy)
        fit_eighs = []
        fit = qrex.verify.chi_square_rate_fit

        def fit_spy(*args):
            before = counts["block_eigh"]
            rate = fit(*args)
            fit_eighs.append(counts["block_eigh"] - before)
            return rate

        monkeypatch.setattr(qrex.verify, "chi_square_rate_fit", fit_spy)
        rows = qrex.verify.run_verification(seed=42)
        assert len(rows) == 25 and all(row["passed"] for row in rows)
        assert counts["symmetrize"] == 5
        assert counts["swap_generator_closed_form"] == 1
        assert counts["joint_gibbs"] == 1
        assert fit_eighs == [0]

    def test_sweep_points_take_the_validated_config(self, monkeypatch):
        config = validate_config({"scenario": "sweep", "replica": {"mode": "none"},
                                  "sweep": {"param": "J", "values": [1.0, 2.0, 3.0]}})
        calls = []
        original = qrex.harness.validate_config

        def spy(raw):
            calls.append(raw)
            return original(raw)

        monkeypatch.setattr(qrex.harness, "validate_config", spy)
        report = run_scenario(config)
        assert [r["J"] for r in report.records] == [1.0, 2.0, 3.0]
        assert calls == []


GAP_KEYS = ["J", "beta", "gap", "kernel_dim", "kms_norm", "eigs", "tol", "blocks", "blocks_solved",
            "largest_block", "arithmetic"]
SWEEP_COLUMNS = ["J", "beta", "gap_single", "gap_re", "g_B", "bound_ratio", "status", "error"]
CLASSICAL_COLUMNS = ["J", "beta", "gap_single", "gap_re", "phi_star", "phi_mode", "status", "error"]
THETA_COLUMNS = ["beta_omega", "theta_closed", "theta_quadrature", "abs_diff"]
# scenario, config, record keys, summary keys, CSV header
SCHEMAS = {
    "gap-none": ("gap", {"replica": {"mode": "none"}}, GAP_KEYS, [],
                 "J,beta,gap,kernel_dim,kms_norm,eigs,tol"),
    "gap-local_A": ("gap", {}, GAP_KEYS, [], "J,beta,gap,kernel_dim,kms_norm,eigs,tol"),
    "gap-global": ("gap", {"replica": {"mode": "global", "beta2": 0.5}}, GAP_KEYS, [],
                   "J,beta,gap,kernel_dim,kms_norm,eigs,tol"),
    "sweep": ("sweep", {"sweep": {"param": "J", "values": [1.0, 5.0]}}, SWEEP_COLUMNS,
              ["gap_single_ratio", "gap_re_max_over_min", "bound_ratio_min", "bound_holds"],
              ",".join(SWEEP_COLUMNS)),
    "mixing": ("mixing", {"replica": {"mode": "none"}}, ["state_id", "t_cross"],
               ["epsilon", "t_measured", "t_lower", "t_upper", "family", "gap", "lambda_min",
                "chunks", "rounds", "eigensolves"], "state_id,t_cross"),
    "verify": ("verify", {}, ["check", "passed", "detail"], ["passed", "n_failed"],
               "check,passed,detail"),
    "theta": ("theta", {}, THETA_COLUMNS, ["max_abs_diff"], ",".join(THETA_COLUMNS)),
    "classical": ("classical", {"sweep": {"param": "J", "values": [1.0, 5.0]}}, CLASSICAL_COLUMNS,
                  ["single_collapse", "re_max_over_min"], ",".join(CLASSICAL_COLUMNS)),
}


class TestEmit:
    @pytest.mark.parametrize("case", SCHEMAS)
    def test_output_schema(self, case):
        # the report dataclasses are the JSON schema: these keys and the CSV
        # columns are what every reader of a qrex report sees
        scenario, raw, record_keys, summary_keys, header = SCHEMAS[case]
        report = run_scenario(validate_config({**raw, "scenario": scenario}))
        doc = json.loads(emit(report, "json", None))
        assert set(doc) == {"scenario", "records", "wall_time", "version", "tolerances", "summary"}
        assert doc["records"] and all(set(r) == set(record_keys) for r in doc["records"])
        assert set(doc["summary"]) == set(summary_keys)
        assert emit(report, "csv", None).split("\n", 1)[0] == header

    def test_header_only_for_empty_records(self):
        report = Report(scenario="sweep", records=[], wall_time=0.0,
                        version="0", tolerances={})
        text = render_csv(report)
        assert text == "J,beta,gap_single,gap_re,g_B,bound_ratio,status,error\n"

    def test_json_roundtrip(self, tmp_path):
        config = validate_config({
            "scenario": "sweep",
            "sweep": {"param": "J", "values": [2.0]},
        })
        report = run_scenario(config)
        path = tmp_path / "out.json"
        emit(report, "json", str(path))
        loaded = Report(**json.loads(path.read_text()))
        assert loaded == report

    def test_json_tolerances_are_the_constants_in_force(self, tmp_path):
        config = validate_config({"scenario": "gap", "replica": {"mode": "none"}})
        path = tmp_path / "out.json"
        emit(run_scenario(config), "json", str(path))
        assert json.loads(path.read_text())["tolerances"] == {
            "kernel_tol": KERNEL_TOL, "quad_abs_tol": QUAD_ABS_TOL,
            "hermiticity_tol": HERMITICITY_TOL,
            "max_dim": config.max_dim, "seed": config.seed,
        }

    def test_csv_written_to_file(self, tmp_path):
        config = validate_config({"scenario": "verify"})
        # verify is slow; emit a stub report instead
        report = Report(scenario="verify",
                        records=[{"check": "x", "passed": True, "detail": "ok"}],
                        wall_time=0.1, version="0", tolerances={})
        path = tmp_path / "out.csv"
        emit(report, "csv", str(path))
        assert path.read_text().startswith("check,passed,detail\nx,True,ok")


class TestCli:
    def test_gap_exit_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "system": {"model": "defected_ising", "n": 3, "J": 2.0},
            "replica": {"mode": "none"},
        })
        out = tmp_path / "gap.csv"
        code = main(["gap", "--config", cfg, "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("J,beta,gap")

    def test_config_error_exit_two(self, tmp_path):
        cfg = write_config(tmp_path, {"weight": "nope"})
        assert main(["gap", "--config", cfg]) == 2

    def test_gap_with_slow_mode_in_kernel_exits_four(self, tmp_path, capsys):
        # the n = 3 Metropolis ring at beta = 2, J = 5 once printed gap 2.00067
        # with kernel_dim 2; the true gap, 3.019e-10, lies below the kernel threshold
        cfg = write_config(tmp_path, {"system": {"model": "defected_ising", "n": 3, "J": 5.0},
                                      "beta": 2.0, "replica": {"mode": "none"}})
        assert main(["gap", "--config", cfg]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("numerical error: kernel dimension 2, expected 1")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_low_temperature_sweep_keeps_the_misread_point_unresolved(self):
        # the beta = 2 local_A sweep once marked J = 5 ok with gap_single 2.0007
        config = validate_config({"scenario": "sweep", "beta": 2.0,
                                  "system": {"model": "defected_ising", "n": 3},
                                  "sweep": {"param": "J", "values": [1.0, 5.0]}})
        ok, low = run_scenario(config).records
        assert ok["status"] == "ok" and ok["gap_single"] == pytest.approx(1.4323e-3, rel=1e-4)
        assert low["status"] == "unresolved" and np.isnan(low["gap_single"])
        assert low["error"].startswith("kernel dimension 2, expected 1")

    @pytest.mark.parametrize("scenario", ["gap", "sweep", "mixing", "verify", "theta",
                                          "classical"])
    def test_one_parser_takes_every_option_for_every_scenario(self, scenario):
        args = build_parser().parse_args([scenario, "--config", "c.json", "--out", "o",
                                          "--format", "json", "--seed", "3", "--max-dim", "9",
                                          "--parallel", "2"])
        assert vars(args) == {"scenario": scenario, "config": "c.json", "out": "o",
                              "format": "json", "seed": 3, "max_dim": 9, "parallel": 2}
        assert vars(build_parser().parse_args([scenario])) == {
            "scenario": scenario, "config": None, "out": None, "format": None, "seed": None,
            "max_dim": None, "parallel": 1}

    def test_unknown_scenario_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["nope"])
        assert exc.value.code == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err

    def test_resource_guard_exit_three(self, tmp_path):
        cfg = write_config(tmp_path, {
            "system": {"model": "defected_heisenberg", "rows": 2, "cols": 3,
                       "A": [0, 3], "defect_edge": [0, 3], "J": 3.0},
        })
        assert main(["gap", "--config", cfg]) == 3

    @pytest.mark.parametrize("payload, field", [
        ({"seed": "abc"}, "'seed'"),
        ({"epsilon": "x"}, "'epsilon'"),
        ({"max_dim": "big"}, "'max_dim'"),
        ({"max_dim": -5}, "'max_dim'"),
        ({"system": {"model": "defected_ising", "n": 2, "J": 1.0}}, "'system'"),
    ], ids=["seed", "epsilon", "max_dim_text", "max_dim_negative", "ring_n2"])
    def test_malformed_config_exit_two_names_field(self, tmp_path, capsys, payload, field):
        cfg = write_config(tmp_path, payload)
        assert main(["gap", "--config", cfg]) == 2
        assert f"config error: field {field}" in capsys.readouterr().err

    @pytest.mark.parametrize("payload, field", [
        ({"seed": 3.7}, "'seed'"),
        ({"max_dim": 1024.5}, "'max_dim'"),
        ({"system": {"model": "defected_ising", "n": 3.9, "J": 1.0}}, "'system.n'"),
        ({"system": {"model": "defected_heisenberg", "rows": 2.5, "cols": 3, "A": [0, 3],
                     "defect_edge": [0, 3], "J": 3.0}}, "'system.rows'"),
        ({"system": {"model": "defected_heisenberg", "rows": 2, "cols": 3.2, "A": [0, 3],
                     "defect_edge": [0, 3], "J": 3.0}}, "'system.cols'"),
    ], ids=["seed", "max_dim", "n", "rows", "cols"])
    def test_non_integral_number_exit_two_names_field(self, tmp_path, capsys, payload, field):
        cfg = write_config(tmp_path, payload)
        assert main(["gap", "--config", cfg]) == 2
        assert f"config error: field {field}: not an integer" in capsys.readouterr().err

    def test_integral_floats_accepted(self, tmp_path):
        cfg = write_config(tmp_path, {
            "system": {"model": "defected_ising", "n": 3.0, "J": 2.0},
            "replica": {"mode": "none"}, "seed": 7.0,
        })
        out = tmp_path / "gap.json"
        assert main(["gap", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
        config = validate_config({"seed": 7.0, "system": {"model": "defected_ising", "n": 3.0}})
        assert (config.seed, config.system["n"]) == (7, 3)
        assert type(config.seed) is int and type(config.system["n"]) is int

    @pytest.mark.parametrize("scenario, payload, field", [
        ("sweep", {"sweep": {"param": "J", "values": []}}, "'sweep.values'"),
        ("sweep", {"sweep": {"param": "J", "values": 3}}, "'sweep.values'"),
        ("sweep", {"sweep": {"param": "J", "values": [1.0, "x"]}}, "'sweep.values'"),
        ("sweep", {"sweep": {"param": "J", "values": [1.0, float("nan")]}}, "'sweep.values'"),
        ("sweep", {"sweep": {"param": "beta", "values": [1.0, 0.0]}}, "'sweep.values'"),
        ("sweep", {"sweep": {"param": "beta", "values": [-1.0]}}, "'sweep.values'"),
        ("gap", {"replica": {"mode": "global", "beta2": "hot"}}, "'replica.beta2'"),
        ("gap", {"replica": {"mode": "global", "beta2": -1}}, "'replica.beta2'"),
        ("classical", {"replica": {"beta2": 0}}, "'replica.beta2'"),
        ("classical", {"replica": {"beta2": -1}}, "'replica.beta2'"),
    ], ids=["values_empty", "values_scalar", "values_text", "values_nan", "beta_zero",
            "beta_negative", "beta2_text", "beta2_negative", "classical_beta2_zero",
            "classical_beta2_negative"])
    def test_bad_sweep_values_and_beta2_exit_two(self, tmp_path, capsys, scenario, payload,
                                                 field):
        cfg = write_config(tmp_path, {"system": {"model": "defected_ising", "n": 3, "J": 2.0},
                                      **payload})
        assert main([scenario, "--config", cfg]) == 2
        assert f"config error: field {field}" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario", ["gap", "sweep"])
    @pytest.mark.parametrize("system, detail", [
        ({"n": 3, "terms": RAW_CHAIN}, "partition required for the cut analysis"),
        ({"n": 3, "terms": RAW_CHAIN + [{"coeff": -1.0, "paulis": [[1, "X"], [2, "X"]]},
                                        {"coeff": -0.5, "paulis": [[1, "Z"]]}],
          "partition": {"A": [0, 1]}},
         "commuting cut does not hold (non-commuting pair on side A"),
    ], ids=["no_partition", "cut_fails"])
    def test_local_a_without_commuting_cut_exit_two(self, tmp_path, capsys, scenario, system,
                                                    detail):
        # once a ValueError traceback with exit 1, the code of a failed verify check
        cfg = write_config(tmp_path, {"system": system, "replica": {"mode": "local_A"},
                                      "sweep": {"param": "beta", "values": [1.0]}})
        assert main([scenario, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: field 'replica.mode': local_A needs ")
        assert detail in err

    @pytest.mark.parametrize("n", [3, 4])
    def test_mixing_with_slow_mode_in_kernel_exits_four(self, tmp_path, capsys, n):
        # on the Gaussian ring at J = 5 the slow mode falls below the kernel
        # threshold; the search then failed its bracket with a traceback, exit 1
        cfg = write_config(tmp_path, {"system": {"model": "defected_ising", "n": n, "J": 5.0},
                                      "weight": "gaussian", "replica": {"mode": "none"}})
        assert main(["mixing", "--config", cfg]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("numerical error: kernel dimension 2, expected 1")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_beta2_read_as_given(self):
        assert validate_config({}).replica["beta2"] is None
        assert validate_config({"replica": {"beta2": 1}}).replica["beta2"] == 1.0
        config = validate_config({"scenario": "classical", "replica": {"beta2": 0.3},
                                  "system": {"model": "defected_ising", "n": 3, "J": 2.0},
                                  "sweep": {"param": "J", "values": [2.0]}})
        expected = qrex.classical.classical_gap(qrex.classical.classical_re_generator(
            lambda z: qrex.classical.classical_defected_ising_energy(z, 2.0), 3, 1.0, 0.3))
        assert run_scenario(config).records[0]["gap_re"] == expected

    @pytest.mark.parametrize("payload, field", [
        ({"system": {"model": "defected_heisenberg", "rows": 2, "cols": 3, "A": [0, 3],
                     "defect_edge": [0, 3], "J": 3.0}}, "'system.model'"),
        ({"system": {"n": 3, "terms": RAW_CHAIN}}, "'system.model'"),
        ({"system": {"model": "defected_ising", "n": 3},
          "sweep": {"param": "beta", "values": [1.0, 2.0]}}, "'sweep.param'"),
        ({"system": {"model": "defected_ising", "n": 2}}, "'system.n'"),
    ], ids=["heisenberg", "raw_terms", "beta_sweep", "ring_n2"])
    def test_classical_outside_the_ring_sweep_exit_two(self, tmp_path, capsys, payload, field):
        # these ran the n = 4 ring, read the beta values as J, or ran a 2-spin ring
        cfg = write_config(tmp_path, payload)
        assert main(["classical", "--config", cfg]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"config error: field {field}")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("scenario", ["sweep", "classical"])
    def test_ring_without_n_is_the_n3_ring(self, scenario):
        # classical once read a missing n as 4, while sweep, gap and mixing read it as 3
        def gaps(system):
            config = validate_config({"scenario": scenario, "system": system,
                                      "replica": {"mode": "none"},
                                      "sweep": {"param": "J", "values": [2.0]}})
            return [rec["gap_single"] for rec in run_scenario(config).records]

        ring = {"model": "defected_ising", "J": 2.0}
        assert gaps(ring) == gaps({**ring, "n": 3}) != gaps({**ring, "n": 4})

    def test_classical_ring_above_six_spins_exit_three(self, tmp_path, capsys):
        # once a ValueError traceback with exit 1, the code of a failed verify check
        cfg = write_config(tmp_path, {"system": {"model": "defected_ising", "n": 7}})
        assert main(["classical", "--config", cfg]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("resource guard: classical replica chain gated at n <= 6")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_classical_gap_below_double_precision_exit_four(self, tmp_path, capsys):
        # the n = 3 ring at beta = 4, J = 5 printed 3.93e-16, below the floor 5.7e-14; the
        # two flip sectors read 5.744e-21 (the 60-digit gap is 5.7007e-21), still below it.
        # The resolved J = 1 row is kept, as a quantum sweep keeps its resolved points
        cfg = write_config(tmp_path, {"system": {"model": "defected_ising", "n": 3}, "beta": 4.0,
                                      "sweep": {"param": "J", "values": [1.0, 5.0]}})
        assert main(["classical", "--config", cfg, "--format", "csv"]) == 4
        out, err = capsys.readouterr()
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["status"] for r in rows] == ["ok", "unresolved"]
        assert float(rows[0]["gap_single"]) > 0 and rows[0]["error"] == ""
        assert np.isnan(float(rows[1]["gap_single"])) and np.isnan(float(rows[1]["gap_re"]))
        assert rows[1]["error"].startswith("classical gap 5.744e-21 is below the resolvable floor")
        assert err.startswith("numerical error: classical gap 5.744e-21 is below the resolvable "
                              "floor")
        assert err.endswith("(J = 5.0, beta = 4.0)\n")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_classical_reports_the_sweep_cut(self, n, beta):
        config = validate_config({"scenario": "classical", "beta": beta,
                                  "system": {"model": "defected_ising", "n": n},
                                  "sweep": {"param": "J", "values": [1.0, 3.0, 5.0]}})
        for rec in run_scenario(config).records:
            assert rec["phi_mode"] == "sweep"
            assert rec["gap_single"] <= 2 * rec["phi_star"]

    def test_global_swap_size_gate_exit_three(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "system": {"model": "defected_ising", "n": 5, "J": 2.0},
            "replica": {"mode": "global"},
        })
        assert main(["gap", "--config", cfg, "--max-dim", str(2**20)]) == 3
        assert "resource guard: global swap gated at n <= 4" in capsys.readouterr().err

    def test_seed_override(self, tmp_path):
        cfg = write_config(tmp_path, {
            "system": {"model": "defected_ising", "n": 3, "J": 2.0},
            "replica": {"mode": "none"},
        })
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["gap", "--config", cfg, "--out", str(out1), "--seed", "7"]) == 0
        assert main(["gap", "--config", cfg, "--out", str(out2), "--seed", "7"]) == 0
        assert out1.read_text() == out2.read_text()

    def test_parallel_sweep_matches_serial(self, tmp_path):
        cfg = write_config(tmp_path, {
            "scenario": "sweep",
            "sweep": {"param": "J", "values": [1.0, 2.0]},
            "replica": {"mode": "none"},
        })
        out1 = tmp_path / "serial.csv"
        out2 = tmp_path / "par.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(out2), "--parallel", "2"]) == 0
        assert out1.read_text() == out2.read_text()
