"""CLI behavior: subcommands, exit codes, determinism."""

import json

import numpy as np
import pytest

from seminmf.cli import main, parse_suite_file, preset_configs
from seminmf.linalg import random_gaussian, random_uniform
from seminmf.matio import read_matrix, write_csv

TIGHT_2x3 = np.array([[1.0, 0.0, -1.0], [0.0, 1.0, -1.0]])


@pytest.fixture
def fixture_file(tmp_path):
    p = tmp_path / "fixture.csv"
    write_csv(p, TIGHT_2x3)
    return p


class TestRank:
    def test_plane_spanning_fixture(self, fixture_file, capsys):
        assert main(["rank", str(fixture_file)]) == 0
        out = capsys.readouterr().out
        assert "rank=2 semi_rank=3 feasible=false" in out

    def test_nonnegative_matrix(self, tmp_path, capsys):
        p = tmp_path / "pos.csv"
        write_csv(p, random_uniform(4, 6, seed=1))
        assert main(["rank", str(p)]) == 0
        out = capsys.readouterr().out
        assert "rank=4 semi_rank=4 feasible=true" in out
        assert "witness_z=" in out

    def test_correction_pole_matrix(self, tmp_path, capsys):
        # feasible, and the first rank-one correction sits on y.alpha = -1
        p = tmp_path / "pole.csv"
        write_csv(p, np.array([[-2.0, -1.0, 3.0, 3.0], [-3.0, -3.0, -3.0, 3.0]]))
        assert main(["rank", str(p)]) == 0
        assert "rank=2 semi_rank=2 feasible=true" in capsys.readouterr().out

    def test_zero_matrix(self, tmp_path, capsys):
        p = tmp_path / "zero.csv"
        write_csv(p, np.zeros((3, 4)))
        assert main(["rank", str(p)]) == 0
        assert "rank=0 semi_rank=0" in capsys.readouterr().out

    def test_factor_output_reconstructs(self, fixture_file, tmp_path, capsys):
        u, v = tmp_path / "u.csv", tmp_path / "v.csv"
        assert main(["rank", str(fixture_file), "--out-u", str(u), "--out-v", str(v)]) == 0
        U, V = read_matrix(u), read_matrix(v)
        assert V.min() >= 0.0
        assert np.linalg.norm(TIGHT_2x3 - U @ V) <= 1e-9

    def test_json_report(self, fixture_file, tmp_path):
        out = tmp_path / "report.json"
        assert main(["rank", str(fixture_file), "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["rank"] == 2 and payload["semi_rank"] == 3

    @pytest.mark.parametrize(
        "M, feasible, method",
        [(TIGHT_2x3, False, "nnls"), (random_uniform(4, 6, seed=1), True, "e1")],
        ids=["nnls", "e1"],
    )
    def test_json_reports_the_certificate_branch(self, tmp_path, capsys, M, feasible, method):
        p, out = tmp_path / "m.csv", tmp_path / "report.json"
        write_csv(p, M)
        assert main(["rank", str(p), "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert (payload["feasible"], payload["method"]) == (feasible, method)
        assert isinstance(payload["pivots"], int)
        assert (payload["pivots"] > 0) == (method == "lp")
        assert "method" not in capsys.readouterr().out

    def test_json_reports_the_gordan_certificate(self, fixture_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["rank", str(fixture_file), "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["support"] == [0, 1, 2]
        assert sum(payload["weights"]) == pytest.approx(1.0)
        assert 0.0 <= payload["distance"] <= 1e-12
        assert "support" not in capsys.readouterr().out

    def test_json_has_no_gordan_certificate_when_feasible(self, tmp_path):
        p, out = tmp_path / "pos.csv", tmp_path / "report.json"
        write_csv(p, random_uniform(4, 6, seed=1))
        assert main(["rank", str(p), "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["support"] is payload["weights"] is payload["distance"] is None

    def test_nnls_iteration_limit_exits_3(self, fixture_file, capsys, monkeypatch):
        import seminmf.halfspace

        monkeypatch.setattr(seminmf.halfspace, "NNLS_MAX_ITER", 1)
        assert main(["rank", str(fixture_file)]) == 3
        assert "NNLS iteration limit" in capsys.readouterr().err

    def test_json_report_finite_at_extreme_scale(self, tmp_path):
        p, out = tmp_path / "huge.csv", tmp_path / "report.json"
        write_csv(p, np.ldexp(random_gaussian(6, 9, seed=5), 600))
        assert main(["rank", str(p), "--json", str(out)]) == 0

        def reject(token):
            raise ValueError(f"{token} is not valid JSON")

        payload = json.loads(out.read_text(), parse_constant=reject)
        assert payload["rank"] == payload["semi_rank"] == 6
        assert 0.0 < payload["frob_error"] < np.inf

    def test_missing_file_exits_2(self, capsys):
        assert main(["rank", "/does/not/exist.csv"]) == 2

    def test_numerical_failure_exits_3(self, fixture_file, capsys, monkeypatch):
        import seminmf.cli as cli
        from seminmf.exceptions import NumericalError

        def boom(M, zero_tol):
            raise NumericalError("synthetic breakdown")

        monkeypatch.setattr(cli, "semi_rank", boom)
        assert main(["rank", str(fixture_file)]) == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("zero_tol", ["nan", "inf", "10"])
    def test_bad_zero_tol_exits_2(self, tmp_path, capsys, zero_tol):
        # each of these used to drop every column and report V = 0, exit 0
        p = tmp_path / "g.csv"
        write_csv(p, np.random.default_rng(0).standard_normal((4, 7)))
        assert main(["rank", str(p), "--zero-tol", zero_tol]) == 2
        assert "zero_tol" in capsys.readouterr().err

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_text("1,2\n3\n")
        assert main(["rank", str(p)]) == 2


class TestFactorize:
    def test_a3_on_positive_matrix(self, tmp_path, capsys):
        p = tmp_path / "m.csv"
        write_csv(p, random_uniform(10, 15, seed=2) + 0.01)
        u, v = tmp_path / "u.csv", tmp_path / "v.csv"
        rc = main(["factorize", str(p), "--rank", "4", "--init", "a3",
                   "--out-u", str(u), "--out-v", str(v)])
        assert rc == 0
        out = capsys.readouterr().out
        qline = [ln for ln in out.splitlines() if ln.startswith("quality=")][0]
        assert float(qline.split("=")[1]) <= 1e-6
        assert read_matrix(v).min() >= 0.0

    def test_trace_written(self, tmp_path):
        p = tmp_path / "m.csv"
        write_csv(p, random_gaussian(6, 9, seed=3))
        tr = tmp_path / "trace.csv"
        assert main(["factorize", str(p), "--rank", "2", "--init", "rd",
                     "--maxiter", "7", "--trace", str(tr)]) == 0
        lines = tr.read_text().strip().splitlines()
        assert lines[0] == "iteration,frob_error,quality"
        assert len(lines) == 1 + 8  # init entry + 7 iterations
        for t, line in enumerate(lines[1:]):
            it, err, qual = line.split(",")
            assert int(it) == t
            assert float(err) >= 0.0 and float(qual) >= 0.0

    # CD overflows on purpose here; the warnings precede the NumericalError
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("init", ["rd", "km", "a2", "a3"])
    @pytest.mark.parametrize("k", [-600, 600])
    def test_numerical_failure_at_extreme_scale_exits_3(self, tmp_path, capsys, init, k):
        # CD cannot run on |M| ~ 2**600 or 2**-600: that is a numerical
        # failure, not a usage error
        p = tmp_path / "m.csv"
        write_csv(p, np.ldexp(random_gaussian(6, 9, seed=5), k))
        assert main(["factorize", str(p), "--rank", "3", "--init", init]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_a3_runs_one_svd(self, tmp_path, capsys, svd_calls):
        p = tmp_path / "m.csv"
        write_csv(p, random_gaussian(6, 9, seed=3))
        assert main(["factorize", str(p), "--rank", "3", "--init", "a3", "--maxiter", "5"]) == 0
        assert len(svd_calls) == 1

    def test_maxiter_zero_rejected(self, tmp_path, capsys):
        p = tmp_path / "m.csv"
        write_csv(p, np.eye(3))
        assert main(["factorize", str(p), "--rank", "1", "--maxiter", "0"]) == 2

    def test_a2_rank_one_rejected(self, tmp_path, capsys):
        p = tmp_path / "m.csv"
        write_csv(p, np.eye(3))
        assert main(["factorize", str(p), "--rank", "1", "--init", "a2"]) == 2
        assert "rank r-1" in capsys.readouterr().err

    def test_determinism(self, tmp_path, capsys):
        p = tmp_path / "m.csv"
        write_csv(p, random_gaussian(6, 8, seed=4))
        args = ["factorize", str(p), "--rank", "2", "--init", "rd",
                "--maxiter", "5", "--seed", "11"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_env_seed_default(self, tmp_path, capsys, monkeypatch):
        p = tmp_path / "m.csv"
        write_csv(p, random_gaussian(6, 8, seed=4))
        base = ["factorize", str(p), "--rank", "2", "--init", "rd", "--maxiter", "5"]
        monkeypatch.setenv("SEMINMF_SEED", "11")
        assert main(base) == 0
        via_env = capsys.readouterr().out
        monkeypatch.delenv("SEMINMF_SEED")
        assert main(base + ["--seed", "11"]) == 0
        assert capsys.readouterr().out == via_env

    def test_bad_env_seed_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        # only the subcommands that take --seed read SEMINMF_SEED
        p = tmp_path / "m.csv"
        write_csv(p, random_gaussian(6, 8, seed=4))
        monkeypatch.setenv("SEMINMF_SEED", "abc")
        assert main(["rank", str(p)]) == 0
        capsys.readouterr()
        assert main(["factorize", str(p), "--rank", "2", "--maxiter", "5"]) == 2
        assert "invalid int value: 'abc'" in capsys.readouterr().err
        assert main(["factorize", str(p), "--rank", "2", "--maxiter", "5", "--seed", "3"]) == 0


SUITE_TEXT = """
# tiny suite
generator=nonnegative m=8 n=10 r=2 max_iter=8 checkpoints=4,8 strategies=rd,a3
generator=noisy_semi m=8 n=10 r=2 delta=inf max_iter=8 checkpoints=8 strategies=a3
"""


class TestBench:
    def test_suite_runs_and_is_deterministic(self, tmp_path):
        suite = tmp_path / "suite.cfg"
        suite.write_text(SUITE_TEXT)
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            rc = main(["bench", "--suite", str(suite), "--trials", "2",
                       "--seed", "7", "--out", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_jobs_do_not_change_csv(self, tmp_path):
        suite = tmp_path / "suite.cfg"
        suite.write_text(SUITE_TEXT)
        blobs = []
        for jobs in ("1", "4"):
            out = tmp_path / f"j{jobs}.csv"
            assert main(["bench", "--suite", str(suite), "--trials", "2",
                         "--seed", "7", "--jobs", jobs, "--out", str(out)]) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_summary_contains_checkpoint_medians(self, tmp_path):
        suite = tmp_path / "suite.cfg"
        suite.write_text(SUITE_TEXT)
        out, summ = tmp_path / "r.csv", tmp_path / "s.json"
        assert main(["bench", "--suite", str(suite), "--trials", "2",
                     "--seed", "3", "--out", str(out), "--summary", str(summ)]) == 0
        payload = json.loads(summ.read_text())
        cfg = payload["nonnegative-m8-n10-r2"]
        assert "median" in cfg["rd"]["iter_4"]
        assert "median" in cfg["rd"]["iter_8"]
        assert "median" in cfg["a3"]["final"]

    def test_schema_violations_listed(self, tmp_path, capsys):
        suite = tmp_path / "bad.cfg"
        suite.write_text(
            "generator=warp m=0 n=5 r=9 delta=maybe strategies=rd,zz\n"
            "generator=noisy_semi m=8 n=10 r=2 delta=nan\n"
            "generator=noisy_semi m=8 n=10 r=2 delta=-inf\n"
        )
        assert main(["bench", "--suite", str(suite), "--trials", "1", "--out", "/dev/null"]) == 2
        err = capsys.readouterr().err
        for field in ("generator", "delta", "m/n", "strategies"):
            assert field in err
        assert "suite line 2: delta: nan invalid" in err
        assert "suite line 3: delta: -inf invalid" in err

    def test_needs_exactly_one_source(self, capsys):
        assert main(["bench", "--trials", "1"]) == 2

    def test_preset_shape(self):
        cfgs = preset_configs("paper-desk")
        assert len(cfgs) == 10  # {nonneg, semi} x {r10, r40} + noisy deltas {5,10,inf} x 2
        assert {c.m for c in cfgs} == {50} and {c.n for c in cfgs} == {100}
        assert {c.r for c in cfgs} == {10, 40}
        deltas = {c.delta for c in cfgs if c.generator == "noisy_semi"}
        assert deltas == {5.0, 10.0, float("inf")}

    def test_parse_suite_defaults_inner_dim(self, tmp_path):
        suite = tmp_path / "s.cfg"
        suite.write_text("generator=semi_nonneg m=20 n=30 r=5\n")
        cfgs = parse_suite_file(suite)
        assert cfgs[0].inner_dim == 15
