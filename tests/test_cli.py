"""Config parsing, CSV/JSON export stability, round-trips and CLI exit codes."""

import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from ccebvp import cli, config
from ccebvp.cli import main
from ccebvp.config import ParseError, parse_config
from ccebvp.exports import export_profile_csv, fmt, load_profile_csv
from ccebvp.solver import SolveOptions, solve_bvp
from ccebvp.systems import SU, BoundaryData


class TestConfig:
    def test_minimal_defaults(self):
        cfg = parse_config("system = su\nn = 5\nphi0 = 0.8\n")
        assert cfg.options.grid == 128 and cfg.options.tol == 1e-10
        assert cfg.phi0 == (0.8,) and cfg.out == "."

    def test_comments_and_whitespace(self):
        cfg = parse_config("# comment\nsystem=su # trailing\n n = 5 \nphi0=0.8\n")
        assert cfg.system == "su"

    def test_even_n_rejected(self):
        with pytest.raises(ParseError, match="odd"):
            parse_config("system = su\nn = 4\nphi0 = 0.8\n")

    def test_negative_ratio_rejected(self):
        with pytest.raises(ParseError, match="positive"):
            parse_config("system = su\nn = 5\nphi0 = -1\n")

    @pytest.mark.parametrize("ratio", ["nan", "inf"])
    def test_non_finite_ratio_rejected(self, ratio):
        with pytest.raises(ParseError, match="finite.*key 'phi0', line 3"):
            parse_config(f"system = su\nn = 5\nphi0 = {ratio}\n")

    def test_unknown_key_named(self):
        with pytest.raises(ParseError, match="frobnicate.*line 2"):
            parse_config("system = su\nfrobnicate = 1\nn = 5\nphi0 = 0.8\n")

    def test_missing_required(self):
        with pytest.raises(ParseError, match="phi0"):
            parse_config("system = su\nn = 5\n")

    def test_small_grid_parses(self):
        # the floor is the mesh's own, 4 nodes
        assert parse_config("system = su\nn = 5\nphi0 = 0.8\ngrid = 6\n").options.grid == 6

    @pytest.mark.parametrize("line, key", [
        ("grid = 2", "grid"),
        ("tol = -1", "tol"),
        ("seed_mode = zeros", "seed_mode"),
        ("sweep_end = 0", "sweep_end"),
        ("sweep_end = inf", "sweep_end"),
        ("sweep_step = 0.05\nsweep_min_step = 0.2\nsweep_end = 0.5", "sweep_step"),
        ("event_tol = 0\nsweep_end = 0.5", "event_tol"),
    ])
    def test_failed_check_names_key(self, line, key):
        with pytest.raises(ParseError, match=f"key '{key}', line 4"):
            parse_config(f"system = su\nn = 3\nphi0 = 0.8\n{line}\n")

    def test_line_named_when_known(self):
        with pytest.raises(ParseError) as e:
            parse_config("system = su\nn = 5\n")
        assert "None" not in str(e.value) and str(e.value).endswith("(key 'phi0')")
        with pytest.raises(ParseError, match="key 'phi0', line 3"):
            parse_config("system = su\nn = 5\nphi0 = -1\n")

    def test_dimension_error_names_n(self):
        # a bad n is reported under n, even when phi0 has the wrong length for it
        with pytest.raises(ParseError, match="n = 3 .key 'n', line 2"):
            parse_config("system = gberger\nn = 5\nphi0 = 1,1\n")

    def test_removed_family_rejected(self):
        with pytest.raises(ParseError, match="key 'system', line 1"):
            parse_config("system = sp\nn = 7\nphi0 = 1,1,1\n")

    def test_readme_configs_parse(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        blocks = re.findall(r"```ini\n(.*?)```", readme, re.S)
        assert blocks
        for block in blocks:
            parse_config(block)


@pytest.fixture(scope="module")
def small_profile():
    prof, rep = solve_bvp(
        BoundaryData(SU, 5, (0.85,)),
        SolveOptions(grid=64, tol=1e-7, refine_rounds=0, coarse_stage=0),
    )
    assert rep.residual_norm <= 1e-7
    return prof


class TestCSV:
    def test_round_trip_bit_exact(self, small_profile, tmp_path):
        p = tmp_path / "profile.csv"
        export_profile_csv(small_profile, str(p))
        loaded = load_profile_csv(str(p))
        assert np.array_equal(loaded.y, small_profile.y)
        assert np.array_equal(loaded.yp, small_profile.yp)
        assert np.array_equal(loaded.mesh.nodes, small_profile.mesh.nodes)
        assert loaded.k0var == small_profile.k0var
        assert loaded.free.coeffs == tuple(np.real(c) for c in small_profile.free.coeffs)
        # re-export reproduces the file byte for byte
        p2 = tmp_path / "profile2.csv"
        export_profile_csv(loaded, str(p2))
        assert p.read_bytes() == p2.read_bytes()

    def test_fmt_shortest_roundtrip(self):
        for v in (1 / 3, 1e-17, 123456.789, 0.1, -2.5e300):
            assert float(fmt(v)) == v
        assert fmt(0.5) == "0.5"

    def test_zero_profile_rows(self, tmp_path):
        prof, rep = solve_bvp(
            BoundaryData(SU, 5, (1.0,)), SolveOptions(grid=16, refine_rounds=0, coarse_stage=0)
        )
        p = tmp_path / "round.csv"
        export_profile_csv(prof, str(p))
        lines = [l for l in p.read_text().splitlines() if l and not l.startswith("#")]
        header, rows = lines[0], lines[1:]
        assert len(rows) == 16
        phi_col = header.split(",").index("Phi")
        assert all(float(r.split(",")[phi_col]) == 0.0 for r in rows)


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestSolveCommand:
    def test_round_exit_zero(self, tmp_path):
        cfg = write_cfg(
            tmp_path, "system = gberger\nn = 3\nphi0 = 1,1\ngrid = 48\ntol = 1e-9\n"
        )
        rc = main(["solve", "--config", cfg, "--out", str(tmp_path), "--quiet"])
        assert rc == 0
        assert (tmp_path / "profile.csv").exists()
        assert (tmp_path / "report.json").exists()

    def test_su_case_exit_zero(self, tmp_path):
        cfg = write_cfg(tmp_path, "system = su\nn = 5\nphi0 = 0.8\ngrid = 96\ntol = 1e-7\n")
        rc = main(["solve", "--config", cfg, "--out", str(tmp_path), "--quiet"])
        assert rc == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["overall_pass"] is True
        assert doc["schema"] == "cce-report-v1"
        # numerics serialized as decimal strings
        assert isinstance(doc["boundary"]["K0"], str)

    def test_unwritable_out_exit_three(self, tmp_path):
        cfg = write_cfg(tmp_path, "system = gberger\nn = 3\nphi0 = 1,1\ngrid = 16\n")
        rc = main(["solve", "--config", cfg, "--out", "/proc/definitely-not-writable", "--quiet"])
        assert rc == 3

    def test_bad_config_exit_one(self, tmp_path):
        cfg = write_cfg(tmp_path, "system = su\nn = 4\nphi0 = 0.8\n")
        assert main(["solve", "--config", cfg, "--quiet"]) == 1

    def test_non_finite_ratio_exit_one(self, tmp_path, capsys):
        # rejected as a config error before any solve, not after it
        cfg = write_cfg(tmp_path, "system = su\nn = 5\nphi0 = nan\ngrid = 16\n")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 1
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "profile.csv").exists()

    @pytest.mark.parametrize("phi0", ["1e-300,1", "1,1e-200"])
    def test_extreme_gberger_ratio_writes_report(self, tmp_path, phi0):
        # the K(0) window check ran into an OverflowError / ZeroDivisionError here
        cfg = write_cfg(tmp_path, f"system = gberger\nn = 3\nphi0 = {phi0}\ngrid = 64\n")
        with np.errstate(all="ignore"):
            rc = main(["solve", "--config", cfg, "--out", str(tmp_path), "--quiet"])
        assert rc in (1, 2)
        doc = json.loads((tmp_path / "report.json").read_text())
        assert any(c["name"] == "k0-window" for c in doc["checks"])

    def test_determinism_reruns(self, tmp_path):
        cfg = write_cfg(tmp_path, "system = su\nn = 5\nphi0 = 0.9\ngrid = 48\ntol = 1e-6\n")
        outs = []
        for d in ("a", "b"):
            out = tmp_path / d
            main(["solve", "--config", cfg, "--out", str(out), "--quiet"])
            outs.append(out)
        assert (outs[0] / "profile.csv").read_bytes() == (outs[1] / "profile.csv").read_bytes()
        docs = [json.loads((o / "report.json").read_text()) for o in outs]
        for d in docs:
            d["provenance"].pop("timestamp")
        assert docs[0] == docs[1]


class TestSweepCommand:
    def test_single_point_sweep(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "system = su\nn = 3\nphi0 = 1\ngrid = 48\ntol = 1e-8\nsweep_end = 1.0\n",
        )
        rc = main(["sweep", "--config", cfg, "--out", str(tmp_path), "--quiet"])
        assert rc == 0
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        data = [l for l in lines if l and not l.startswith("#")]
        assert len(data) == 2  # header + one row
        assert any("stop_reason=path-end" in l for l in lines)
        assert not (tmp_path / "event.json").exists()

    def test_missing_sweep_end(self, tmp_path):
        cfg = write_cfg(tmp_path, "system = su\nn = 3\nphi0 = 1\n")
        assert main(["sweep", "--config", cfg, "--quiet"]) == 1


class TestReadmeKeyTable:
    OWNERS = {"run": "RunConfig", "options": "SolveOptions", "sweep": "SweepPlan"}

    def test_table_matches_config_keys(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        table = readme[readme.index("| key | sets | default | rule |"):].split("\n\n", 1)[0]
        rows = [[c.strip().strip("`") for c in line.strip("|").split("|")] for line in table.splitlines()[2:]]
        assert [r[0] for r in rows] == list(config._KEYS)
        for key, sets, *_ in rows:
            where, name, _ = config._KEYS[key]
            assert sets == f"{self.OWNERS[where]}.{name}", key


class TestVerifyExport:
    def test_verify_single(self, small_profile, tmp_path):
        p = tmp_path / "profile.csv"
        export_profile_csv(small_profile, str(p))
        rc = main(["verify", str(p), "--out", str(tmp_path)])
        assert rc in (0, 2)
        assert (tmp_path / "report.json").exists()

    def test_verify_pair(self, small_profile, tmp_path, capsys):
        p = tmp_path / "a.csv"
        export_profile_csv(small_profile, str(p))
        rc = main(["verify", str(p), str(p)])
        assert rc == 0
        outtext = capsys.readouterr().out
        assert "V(z1)" in outtext and "forces_zero=True" in outtext

    def test_unknown_system_exit_three(self, small_profile, tmp_path, capsys):
        p = tmp_path / "profile.csv"
        export_profile_csv(small_profile, str(p))
        p.write_text(p.read_text().replace("# system=su\n", "# system=sp\n"))
        assert main(["verify", str(p), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "'sp'" in err and "gberger" in err

    @pytest.mark.parametrize("header, value, message", [
        ("n", None, "'n' is missing"),
        ("free", "0.1,0.2", "'free' needs 1 values, got 2"),
        ("infinity_free", "0.1,0.2,0.3", "'infinity_free' needs 1 values, got 3"),
    ])
    def test_bad_header_exit_three(self, small_profile, tmp_path, capsys, header, value, message):
        # a missing header line, or one with the wrong count, is named on load
        p = tmp_path / "profile.csv"
        export_profile_csv(small_profile, str(p))
        line = "" if value is None else f"# {header}={value}\n"
        p.write_text(re.sub(f"^# {header}=.*\n", line, p.read_text(), flags=re.M))
        assert main(["verify", str(p), "--out", str(tmp_path)]) == 3
        assert message in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_export_json(self, small_profile, tmp_path):
        p = tmp_path / "profile.csv"
        export_profile_csv(small_profile, str(p))
        rc = main(["export", str(p), "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "profile.json").read_text())
        assert doc["system"] == "su" and len(doc["x"]) == 64


class TestSweepMinStep:
    def test_min_step_exhaustion_exit_two(self, tmp_path):
        # a coarse grid with an unreachable drift gate fails every step after
        # the round start; halving exhausts the minimum step
        cfg = write_cfg(
            tmp_path,
            "system = su\nn = 3\nphi0 = 1\ngrid = 24\ntol = 1e-12\n"
            "sweep_end = 0.5\nsweep_step = 0.05\nsweep_min_step = 0.02\n",
        )
        rc = main(["sweep", "--config", cfg, "--out", str(tmp_path), "--quiet"])
        assert rc == 2
        assert "stop_reason=min-step" in (tmp_path / "trace.csv").read_text()

    def test_summary_lists_rejected_steps(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            "system = su\nn = 3\nphi0 = 1\ngrid = 24\ntol = 1e-12\n"
            "sweep_end = 0.5\nsweep_step = 0.05\nsweep_min_step = 0.02\n",
        )
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "stop_reason=min-step records=1 rejected=2"
        assert lines[1].startswith("  rejected lambda=0.95: ") and lines[2].startswith("  rejected lambda=0.975: ")


class TestFlaggedExit:
    def test_converged_but_flagged_exit_two(self, tmp_path):
        # converges at a loose tolerance but the hard radial-trace threshold
        # fails at this resolution: converged-but-flagged
        cfg = write_cfg(
            tmp_path, "system = su\nn = 3\nphi0 = 0.31\ngrid = 128\ntol = 1e-6\n"
        )
        rc = main(["solve", "--config", cfg, "--out", str(tmp_path), "--quiet"])
        assert rc == 2
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["converged"] is True and doc["overall_pass"] is False


class TestFlagOverrides:
    def test_grid_and_tol_flags(self, tmp_path):
        cfg = write_cfg(tmp_path, "system = gberger\nn = 3\nphi0 = 1,1\n")
        rc = main(
            ["solve", "--config", cfg, "--out", str(tmp_path), "--grid", "24",
             "--tol", "1e-8", "--quiet"]
        )
        assert rc == 0
        lines = (tmp_path / "profile.csv").read_text().splitlines()
        rows = [l for l in lines if l and not l.startswith("#") and not l.startswith("x,")]
        assert len(rows) == 24
        assert any("tol=1e-08" in l for l in lines)

    @pytest.mark.parametrize("flag", [["--tol", "-1"], ["--grid", "2"]])
    def test_bad_flag_exits_before_solving(self, tmp_path, monkeypatch, flag):
        calls = []
        monkeypatch.setattr(cli, "solve_bvp", lambda *a: calls.append(a))
        cfg = write_cfg(tmp_path, "system = gberger\nn = 3\nphi0 = 1,1\n")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path), "--quiet", *flag]) == 1
        assert calls == []
