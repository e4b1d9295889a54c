"""CLI behavior: subcommands, exit codes, determinism."""

import json

import numpy as np
import pytest

from seminmf.cli import main, parse_suite_file, preset_configs
from seminmf.exceptions import NumericalError
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
        # the NNLS passes of TIGHT_2x3, 0 when the closed form decides
        assert payload["passes"] == (4 if method == "nnls" else 0)
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

        def boom(M):
            raise NumericalError("synthetic breakdown")

        monkeypatch.setattr(cli, "semi_rank", boom)
        assert main(["rank", str(fixture_file)]) == 3
        assert "numerical failure" in capsys.readouterr().err

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

    def test_trace_written(self, tmp_path, capsys):
        p = tmp_path / "m.csv"
        write_csv(p, random_gaussian(6, 9, seed=3))
        tr = tmp_path / "trace.csv"
        for init in ("rd", "a3"):
            assert main(["factorize", str(p), "--rank", "2", "--init", init,
                         "--maxiter", "7", "--trace", str(tr)]) == 0
            lines = tr.read_text().strip().splitlines()
            assert lines[0] == "iteration,frob_error,quality"
            assert len(lines) == 1 + 8  # init entry + 7 iterations
            for t, line in enumerate(lines[1:]):
                it, err, qual = line.split(",")
                assert int(it) == t
                assert float(err) >= 0.0 and float(qual) >= 0.0
            # the printed error is the trace's last row, bit for bit
            out = dict(line.split("=") for line in capsys.readouterr().out.split())
            assert float(out["frob_error"]) == float(lines[-1].split(",")[1])

    @staticmethod
    def _factorize(path, init, capsys):
        assert main(["factorize", str(path), "--rank", "3", "--init", init]) == 0
        out = dict(line.split("=") for line in capsys.readouterr().out.split())
        return float(out["frob_error"]), float(out["quality"])

    @pytest.mark.parametrize("init", ["rd", "km", "a2", "a3"])
    @pytest.mark.parametrize("k", [-600, 600])
    def test_factorize_at_extreme_scale_matches_unit_scale(self, tmp_path, capsys, init, k):
        # no numerical failure, and so no exit 3, at |M| ~ 2**600 or 2**-600:
        # the solve and the norms work on M / pow2_scale(M), so the error
        # scales by 2**k, the quality does not change and no RuntimeWarning
        # is raised
        M = random_gaussian(6, 9, seed=5)
        unit, scaled = tmp_path / "unit.csv", tmp_path / "scaled.csv"
        write_csv(unit, M)
        write_csv(scaled, np.ldexp(M, k))
        err, qual = self._factorize(unit, init, capsys)
        err_k, qual_k = self._factorize(scaled, init, capsys)
        assert np.ldexp(err_k, -k) == pytest.approx(err, rel=1e-12)
        assert qual_k == pytest.approx(qual, rel=1e-12)

    @pytest.mark.parametrize("init", ["rd", "km", "a2", "a3"])
    def test_zero_matrix(self, tmp_path, capsys, init):
        # U = 0 at every iteration: each column is degenerate and its row
        # takes a zero step, so the optimum 0 is reached with no 0/0
        p = tmp_path / "zero.csv"
        write_csv(p, np.zeros((4, 6)))
        assert main(["factorize", str(p), "--rank", "2", "--init", init]) == 0
        out = dict(line.split("=") for line in capsys.readouterr().out.split())
        assert float(out["frob_error"]) == 0.0
        assert float(out["quality"]) == 0.0

    def test_numerical_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        def fail(M, V0s, max_iter):
            return [NumericalError("non-finite residual") for _ in V0s]

        monkeypatch.setattr("seminmf.bench.cd_semi_nmf_stack", fail)
        p = tmp_path / "m.csv"
        write_csv(p, random_gaussian(6, 9, seed=5))
        assert main(["factorize", str(p), "--rank", "3", "--init", "rd"]) == 3
        assert "numerical failure: non-finite residual" in capsys.readouterr().err

    def test_maxiter_zero_exits_2_before_the_start(self, tmp_path, capsys, monkeypatch):
        def unreachable(*args):
            raise AssertionError("the SVD or the A3 bisection ran before max_iter was checked")

        monkeypatch.setattr("seminmf.initializers.bisection_epsilon", unreachable)
        monkeypatch.setattr("seminmf.cli.thin_svd", unreachable)
        p = tmp_path / "m.csv"
        write_csv(p, random_gaussian(6, 9, seed=5))
        assert main(["factorize", str(p), "--rank", "3", "--init", "a3", "--maxiter", "0"]) == 2
        assert "max_iter must be >= 1" in capsys.readouterr().err

    def test_a3_runs_one_svd(self, tmp_path, capsys, svd_calls):
        p = tmp_path / "m.csv"
        write_csv(p, random_gaussian(6, 9, seed=3))
        assert main(["factorize", str(p), "--rank", "3", "--init", "a3", "--maxiter", "5"]) == 0
        assert len(svd_calls) == 1

    def test_maxiter_zero_rejected(self, tmp_path, capsys):
        p = tmp_path / "m.csv"
        write_csv(p, np.eye(3))
        assert main(["factorize", str(p), "--rank", "1", "--maxiter", "0"]) == 2

    @pytest.mark.parametrize("rank", ["0", "4"])
    def test_rank_out_of_range_rejected(self, tmp_path, capsys, rank):
        p = tmp_path / "m.csv"
        write_csv(p, random_gaussian(3, 5, seed=4))
        assert main(["factorize", str(p), "--rank", rank]) == 2
        assert f"r={rank} out of range for a 3x5 matrix" in capsys.readouterr().err

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


SUITE_TEXT = """
# tiny suite
generator=nonnegative m=8 n=10 r=2 max_iter=8 checkpoints=4,8 strategies=rd,a3
generator=noisy_semi m=8 n=10 r=2 delta=inf max_iter=8 checkpoints=8 strategies=a3
"""
LOWRANK_SUITE_TEXT = "generator=semi_nonneg m=20 n=30 r=5 inner_dim=3\n"


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

    def test_default_seed_is_zero(self, tmp_path):
        suite = tmp_path / "suite.cfg"
        suite.write_text(SUITE_TEXT)
        blobs = []
        for seed_args in ([], ["--seed", "0"]):
            out = tmp_path / f"s{len(seed_args)}.csv"
            assert main(["bench", "--suite", str(suite), "--trials", "1",
                         "--out", str(out)] + seed_args) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

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
        cases = [
            (SUITE_TEXT, "2", "3", "nonnegative-m8-n10-r2", ("iter_4", "iter_8")),
            # the best rank-5 error is 0, so rd and km end at quality inf on
            # two of the four trials
            (LOWRANK_SUITE_TEXT, "4", "1", "semi_nonneg-m20-n30-r5-k3", ("iter_10", "iter_100")),
        ]
        for text, trials, seed, config, checkpoints in cases:
            suite = tmp_path / "suite.cfg"
            suite.write_text(text)
            out, summ = tmp_path / "r.csv", tmp_path / "s.json"
            assert main(["bench", "--suite", str(suite), "--trials", trials,
                         "--seed", seed, "--out", str(out), "--summary", str(summ)]) == 0
            assert '"nan"' not in summ.read_text()
            cfg = json.loads(summ.read_text())[config]
            for checkpoint in checkpoints:
                assert "median" in cfg["rd"][checkpoint]
            assert "median" in cfg["a3"]["final"]
        # the low-rank suite's rd: a level that weighs an inf quality is inf
        assert cfg["rd"]["final"] == {
            "count": 4, "min": 0.0, "q25": 0.0, "median": "inf", "q75": "inf", "max": "inf"
        }

    def test_schema_violations_listed(self, tmp_path, capsys):
        suite = tmp_path / "bad.cfg"
        suite.write_text(
            "generator=warp m=0 n=5 r=9 delta=maybe strategies=rd,zz\n"
            "generator=noisy_semi m=8 n=10 r=2 delta=nan\n"
            "generator=noisy_semi m=8 n=10 r=2 delta=-inf\n"
            "generator=semi_nonneg m=20 n=30 r=2 delta=5\n"
        )
        assert main(["bench", "--suite", str(suite), "--trials", "1", "--out", "/dev/null"]) == 2
        err = capsys.readouterr().err
        for field in ("generator", "delta", "m/n", "strategies"):
            assert field in err
        assert "suite line 2: delta: nan invalid" in err
        assert "suite line 3: delta: -inf invalid" in err
        assert "suite line 4: delta: semi_nonneg ignores it (noisy_semi only)" in err

    @pytest.mark.parametrize(
        "line, message",
        [
            ("generator=noisy_semi m=abc n=10 r=2 delta=1", "m: expected integer, got 'abc'"),
            ("generator=semi_nonneg m=8 n=10 r=x", "r: expected integer, got 'x'"),
            ("generator=nonnegative m=8 n=10 r=2 restarts=2", "unknown key 'restarts'"),
            ("generator=nonnegative m=8 n=10 r=2 fast", "token 'fast' is not key=value"),
        ],
        ids=["m", "inner_dim-default", "restarts", "token"],
    )
    def test_bad_field_reported_once(self, tmp_path, capsys, line, message):
        suite = tmp_path / "bad.cfg"
        suite.write_text(line + "\n")
        assert main(["bench", "--suite", str(suite), "--trials", "1", "--out", "/dev/null"]) == 2
        assert capsys.readouterr().err == f"error: suite line 1: {message}\n"

    @pytest.mark.parametrize(
        "text, args, message",
        [
            ("# only a comment\n\n", [], "no suite configs found"),
            (SUITE_TEXT, ["--trials", "0"], "--trials must be >= 1"),
            (SUITE_TEXT, ["--jobs", "0"], "--jobs must be >= 1"),
        ],
        ids=["no-configs", "trials", "jobs"],
    )
    def test_usage_errors(self, tmp_path, capsys, text, args, message):
        suite = tmp_path / "suite.cfg"
        suite.write_text(text)
        args = ["bench", "--suite", str(suite), "--trials", "1", "--out", "/dev/null", *args]
        assert main(args) == 2
        assert message in capsys.readouterr().err

    def test_csv_on_stdout_without_out(self, tmp_path, capsys):
        suite = tmp_path / "suite.cfg"
        suite.write_text(SUITE_TEXT)
        out = tmp_path / "r.csv"
        assert main(["bench", "--suite", str(suite), "--trials", "1", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["bench", "--suite", str(suite), "--trials", "1"]) == 0
        assert capsys.readouterr().out == out.read_text()

    def test_needs_exactly_one_source(self, capsys):
        assert main(["bench", "--trials", "1"]) == 2
        assert main(["bench", "--suite", "s.cfg", "--preset", "paper-desk", "--trials", "1"]) == 2
        # an empty --suite is a suite path that does not exist, not a missing source
        assert main(["bench", "--suite", "", "--trials", "1"]) == 2
        assert "No such file" in capsys.readouterr().err

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
