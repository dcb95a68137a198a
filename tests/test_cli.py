"""Config parsing, CSV/JSON export stability, round-trips and CLI exit codes."""

import argparse
import ast
import hashlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ccebvp import cli, config, geometry, verification
from ccebvp.cli import main
from ccebvp.config import ParseError, parse_config
from ccebvp.continuation import SweepPlan
from ccebvp.exports import config_hash, export_profile_csv, fmt, load_profile_csv
from ccebvp.solver import SolveOptions, solve_bvp
from ccebvp.systems import GBERGER, SU, BoundaryData, UsageError


class TestConfig:
    def test_minimal_defaults(self):
        cfg = parse_config("system = su\nn = 5\nphi0 = 0.8\n")
        assert cfg.options.grid == 128 and cfg.options.tol == 1e-10
        assert cfg.bd.phi0 == (0.8,) and cfg.out == "."

    def test_comments_and_whitespace(self):
        cfg = parse_config("# comment\nsystem=su # trailing\n n = 5 \nphi0=0.8\n")
        assert cfg.bd.kind is SU

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

    def test_removed_seed_mode_key_rejected(self):
        # configs written for the removed second start fail loudly
        with pytest.raises(ParseError, match="unknown key 'seed_mode'.*line 4"):
            parse_config("system = su\nn = 5\nphi0 = 0.8\nseed_mode = blend\n")

    @pytest.mark.parametrize("repeat, line", [("n = 3", 4), ("grid = 64\ngrid = 96", 5)])
    def test_repeated_key_named(self, repeat, line):
        # a repeated key is an error, not a silent override by its last value
        key = repeat.split()[0]
        with pytest.raises(ParseError, match=f"repeated key '{key}'.*key '{key}', line {line}"):
            parse_config(f"system = su\nn = 5\nphi0 = 0.8\n{repeat}\n")

    @pytest.mark.parametrize("value", ["ture", "on", "2", ""])
    def test_non_boolean_flag_named(self, value):
        # a misspelt boolean is an error, not a silent false
        with pytest.raises(ParseError, match=f"bad value for 'quiet'.*key 'quiet', line 4"):
            parse_config(f"system = su\nn = 5\nphi0 = 0.8\nquiet = {value}\n")

    @pytest.mark.parametrize("value, quiet", [("1", True), ("Yes", True), ("TRUE", True), ("0", False),
                                              ("no", False), ("False", False)])
    def test_boolean_words(self, value, quiet):
        assert parse_config(f"system = su\nn = 5\nphi0 = 0.8\nquiet = {value}\n").quiet is quiet

    def test_line_without_equals_named(self):
        with pytest.raises(ParseError, match=r"expected 'key = value' \(line 2\)"):
            parse_config("system = su\nn 5\nphi0 = 0.8\n")

    def test_missing_required(self):
        with pytest.raises(ParseError, match="phi0"):
            parse_config("system = su\nn = 5\n")

    def test_small_grid_parses(self):
        # the floor is the mesh's own, 4 nodes
        assert parse_config("system = su\nn = 5\nphi0 = 0.8\ngrid = 6\n").options.grid == 6

    @pytest.mark.parametrize("line, key", [
        ("grid = 2", "grid"),
        ("tol = -1", "tol"),
        ("sweep_end = 0", "sweep_end"),
        ("sweep_end = inf", "sweep_end"),
        ("sweep_step = 0.05\nsweep_min_step = 0.2\nsweep_end = 0.5", "sweep_step"),
        ("event_tol = 0\nsweep_end = 0.5", "event_tol"),
        ("tol = inf", "tol"),
        ("tol = nan", "tol"),
        ("sweep_max_step = inf\nsweep_end = 0.5", "sweep_max_step"),
        ("event_tol = inf\nsweep_end = 0.5", "event_tol"),
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
        cfgs = [parse_config(block) for block in blocks]
        # the sweep example builds its plan; the solve example builds none
        assert [cfg.plan is not None for cfg in cfgs] == ["sweep_end" in block for block in blocks]
        assert any(cfg.plan is not None for cfg in cfgs)

    def test_sweep_solves_at_plan_defaults(self):
        # a sweep's options are SweepPlan's own, with the solver keys a config sets laid over them
        base = "system = su\nn = 3\nphi0 = 1\nsweep_end = 1.5\n"
        cfg = parse_config(base)
        assert cfg.plan.options == SweepPlan(SU, 3, lam_end=1.5).options
        assert cfg.options == SolveOptions()
        cfg = parse_config(base + "grid = 96\n")
        assert (cfg.plan.options.grid, cfg.plan.options.tol) == (96, 3e-8)
        assert cfg.plan.lam_end == 1.5 and cfg.bd == BoundaryData(SU, 3, (1.0,))
        assert parse_config("system = su\nn = 3\nphi0 = 1\n").plan is None

    def test_flags_override_keys(self):
        text = "system = su\nn = 3\nphi0 = 1\ngrid = 64\nout = a\nsweep_end = 1.5\n"
        cfg = parse_config(text, {"grid": "96", "tol": "1e-8", "out": "b", "quiet": "true"})
        assert (cfg.options.grid, cfg.options.tol, cfg.out, cfg.quiet) == (96, 1e-8, "b", True)
        assert (cfg.plan.options.grid, cfg.plan.options.tol) == (96, 1e-8)

    @pytest.mark.parametrize("flags, message", [
        ({"grid": "2.5"}, "bad value for 'grid': '2.5' (key 'grid')"),
        ({"grid": "2"}, "grid must be at least 4, got 2 (key 'grid')"),
        ({"tol": "inf"}, "tol must be positive and finite, got inf (key 'tol')"),
    ])
    def test_bad_flag_names_key(self, flags, message):
        # a flag is named as the key it overrides; it has no line, even over a config line
        with pytest.raises(ParseError) as e:
            parse_config("system = su\nn = 3\nphi0 = 1\ngrid = 64\n", flags)
        assert str(e.value) == message


@pytest.fixture(scope="module")
def small_profile():
    prof, rep = solve_bvp(
        BoundaryData(SU, 5, (0.85,)),
        SolveOptions(grid=64, tol=1e-7, refine_rounds=0),
    )
    assert rep.residual_norm <= 1e-7
    return prof


@pytest.fixture(scope="module")
def small_gb_profile():
    prof, rep = solve_bvp(
        BoundaryData(GBERGER, 3, (0.95, 1.02)),
        SolveOptions(grid=48, tol=1e-7, refine_rounds=0),
    )
    assert rep.converged
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
        assert loaded.free.coeffs == small_profile.free.coeffs
        # re-export reproduces the file byte for byte
        p2 = tmp_path / "profile2.csv"
        export_profile_csv(loaded, str(p2))
        assert p.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("header, value, message", [
        ("tol", "inf", "'tol' must be positive and finite, got inf"),
        ("tol", "nan", "'tol' must be positive and finite, got nan"),
        ("tol", "0", "'tol' must be positive and finite, got 0.0"),
        ("tol", "-1", "'tol' must be positive and finite, got -1.0"),
        ("converged", "maybe", "'converged' must be true or false, got 'maybe'"),
    ])
    def test_unreal_tol_or_converged_rejected(self, small_profile, tmp_path, header, value, message):
        p = tmp_path / "profile.csv"
        export_profile_csv(small_profile, str(p))
        p.write_text(re.sub(f"^# {header}=.*$", f"# {header}={value}", p.read_text(), flags=re.M))
        with pytest.raises(ValueError, match=re.escape(message)):
            load_profile_csv(str(p))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name, kind", [("x", "column"), ("y1", "column"), ("yp2", "column"),
                                            ("k0var", "header"), ("free", "header"), ("infinity_free", "header")])
    def test_non_finite_value_rejected(self, small_profile, tmp_path, name, kind, value):
        p = tmp_path / "profile.csv"
        export_profile_csv(small_profile, str(p))
        poison(p, name, value)
        with pytest.raises(ValueError, match=f"profile {kind} '{name}' is not finite"):
            load_profile_csv(str(p))

    def test_derived_columns_unread(self, tmp_path):
        # K, Phi, I1, ... of a v1 file are recomputed from the unknowns, so a non-finite one loads
        p = tmp_path / "profile.csv"
        p.write_bytes(V1_SU.read_bytes())
        poison(p, "Phi", "nan")
        assert np.array_equal(load_profile_csv(str(p)).y, load_profile_csv(str(V1_SU)).y)

    def test_gberger_derived_columns_unread(self, tmp_path):
        # the loader converts only x, y_i and yp_i: poisoned or unparsable
        # derived columns of a v1 gberger profile still load bit for bit
        p = tmp_path / "profile.csv"
        p.write_bytes(V1_GBERGER.read_bytes())
        for name, value in (("Phi", "nan"), ("I3", "inf"), ("max_radial_curvature", "not-a-number")):
            poison(p, name, value)
        loaded, want = load_profile_csv(str(p)), load_profile_csv(str(V1_GBERGER))
        for got, ref in ((loaded.mesh.nodes, want.mesh.nodes), (loaded.y, want.y), (loaded.yp, want.yp)):
            assert got.dtype == np.float64 and got.tobytes() == ref.tobytes()

    def test_fmt_shortest_roundtrip(self):
        for v in (1 / 3, 1e-17, 123456.789, 0.1, -2.5e300):
            assert float(fmt(v)) == v
        assert fmt(0.5) == "0.5"

    def test_zero_profile_rows(self, tmp_path):
        # the CSV holds the stored columns; cce export derives Phi, exactly 0 on round data
        prof, rep = solve_bvp(
            BoundaryData(SU, 5, (1.0,)), SolveOptions(grid=16, refine_rounds=0)
        )
        p = tmp_path / "round.csv"
        export_profile_csv(prof, str(p))
        lines = [l for l in p.read_text().splitlines() if l and not l.startswith("#")]
        header, rows = lines[0], lines[1:]
        assert header == "x,y1,y2,yp1,yp2" and len(rows) == 16
        assert main(["export", str(p)]) == 0
        phi = json.loads((tmp_path / "profile.json").read_text())["Phi"]
        assert len(phi) == 16 and all(float(v) == 0.0 for v in phi)


V1_SU = Path(__file__).resolve().parent / "data" / "profile_v1.csv"
V1_GBERGER = V1_SU.with_name("profile_v1_gberger.csv")


@pytest.mark.parametrize("v1", [V1_SU, V1_GBERGER], ids=["su", "gberger"])
class TestV1Profile:
    """Files of the first format (tests/data/make_profile_v1.py), which also
    held the derived columns, still load, verify and export as before."""

    def test_loads_bit_for_bit(self, v1, tmp_path):
        # its re-export is its header and stored columns, byte for byte, and loads the same floats
        prof = load_profile_csv(str(v1))
        p = tmp_path / "profile.csv"
        export_profile_csv(prof, str(p))
        m = prof.y.shape[0]
        want = [l.replace("cce-profile-v1", "cce-profile-v2") if l.startswith("#")
                else ",".join(l.split(",")[: 1 + 2 * m]) for l in v1.read_text().splitlines()]
        assert p.read_text().splitlines() == want
        again = load_profile_csv(str(p))
        for got, ref in ((again.mesh.nodes, prof.mesh.nodes), (again.y, prof.y), (again.yp, prof.yp)):
            assert got.tobytes() == ref.tobytes()

    def test_verify_reports_the_same(self, v1, tmp_path):
        p = tmp_path / "profile.csv"
        export_profile_csv(load_profile_csv(str(v1)), str(p))
        docs = []
        for path, out in ((v1, tmp_path / "v1"), (p, tmp_path / "v2")):
            assert main(["verify", str(path), "--out", str(out)]) == 0
            docs.append({**json.loads((out / "report.json").read_text()), "provenance": None})
        assert docs[0] == docs[1]

    def test_export_writes_the_derived_column_text(self, v1, tmp_path):
        # profile.json holds exactly the strings of the v1 file's derived columns,
        # exported from the v1 file and from its re-export
        lines = [l for l in v1.read_text().splitlines() if not l.startswith("#")]
        col = dict(zip(lines[0].split(","), zip(*(l.split(",") for l in lines[1:]))))
        m = sum(name.startswith("yp") for name in col)
        want = {
            "K": list(col["K"]),
            "phi": [list(col[f"phi{i}"]) for i in range(1, m)],
            "Phi": list(col["Phi"]),
            "I": [list(values) for name, values in col.items() if re.fullmatch(r"I\d+", name)],
            "max_radial_curvature": list(col["max_radial_curvature"]),
        }
        p = tmp_path / "v2" / "profile.csv"
        p.parent.mkdir()
        export_profile_csv(load_profile_csv(str(v1)), str(p))
        for path, out in ((v1, tmp_path / "v1"), (p, p.parent)):
            assert main(["export", str(path), "--out", str(out)]) == 0
            doc = json.loads((out / "profile.json").read_text())
            assert {k: doc[k] for k in want} == want


def poison(path, name, value):
    """Set the first value of header `name`, or column `name` in the seventh row, of a profile CSV."""
    text = path.read_text()
    if re.search(f"^# {name}=", text, flags=re.M):
        path.write_text(re.sub(f"^(# {name}=)[^,\n]*", rf"\g<1>{value}", text, flags=re.M))
        return
    lines = text.splitlines(keepends=True)
    head = next(i for i, line in enumerate(lines) if line.startswith("x,"))
    col, fields = lines[head].rstrip("\n").split(",").index(name), lines[head + 7].rstrip("\n").split(",")
    fields[col] = value
    lines[head + 7] = ",".join(fields) + "\n"
    path.write_text("".join(lines))


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

    def test_failed_replace_exit_three(self, tmp_path, capsys):
        # profile.csv is a directory, so the rename of the written temp file
        # fails; the temp file is removed
        cfg = write_cfg(tmp_path, "system = gberger\nn = 3\nphi0 = 1,1\ngrid = 16\n")
        out = tmp_path / "out"
        (out / "profile.csv").mkdir(parents=True)
        assert main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 3
        assert "write failed" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["profile.csv"]

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_outputs_take_the_umask_mode(self, tmp_path, monkeypatch, umask, mode):
        # open() creates the temp file with the umask's mode and the rename
        # keeps it; no write reads or sets the umask, which is process-wide
        def refuse(mask):
            raise AssertionError("os.umask called")

        cfg = write_cfg(tmp_path, "system = gberger\nn = 3\nphi0 = 1,1\ngrid = 16\n")
        old = os.umask(umask)
        try:
            with monkeypatch.context() as m:
                m.setattr(os, "umask", refuse)
                assert main(["solve", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        finally:
            os.umask(old)
        for name in ("profile.csv", "report.json"):
            assert (tmp_path / name).stat().st_mode & 0o777 == mode

    def test_failed_solve_metric_overflow_exit_one(self, tmp_path, capsys):
        # the solve fails (line search stalled) at max|y| near 1e7, and its
        # metric components overflow in the curvature pass: a solve error,
        # not a traceback
        cfg = write_cfg(tmp_path, "system = su\nn = 7\nphi0 = 0.01\ngrid = 16\n")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 1
        assert "solve error: metric components overflow" in capsys.readouterr().err
        assert not (tmp_path / "profile.csv").exists()

    def test_unreadable_config_exit_three(self, tmp_path, capsys):
        # a missing file, and one that is not valid UTF-8
        undecodable = tmp_path / "undecodable.cfg"
        undecodable.write_bytes(b"system = su\nn = 3\nphi0 = 1.5 # \xe9\xff\n")
        for command in ("solve", "sweep"):
            for cfg in (tmp_path / "missing.cfg", undecodable):
                assert main([command, "--config", str(cfg), "--quiet"]) == 3
                assert "cannot read config" in capsys.readouterr().err

    def test_solver_usage_error_exit_one(self, tmp_path, capsys, monkeypatch):
        def refuse(bd, opts):
            raise UsageError("refused")

        monkeypatch.setattr(cli, "solve_bvp", refuse)
        cfg = write_cfg(tmp_path, "system = su\nn = 3\nphi0 = 1\n")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 1
        assert "solve error: refused" in capsys.readouterr().err
        assert not (tmp_path / "profile.csv").exists()

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

    def test_non_finite_start_exits_one_without_warnings(self, tmp_path):
        # the start itself overflows: the solve ends with its own reason, the
        # report's checks fail or read n/a, and no numpy RuntimeWarning
        # reaches stderr
        cfg = write_cfg(tmp_path, "system = gberger\nn = 3\nphi0 = 1e-300,1\ngrid = 64\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        out = subprocess.run([sys.executable, "-m", "ccebvp.cli", "solve", "--config", cfg, "--out", str(tmp_path)],
                             capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert out.returncode == 1
        assert "RuntimeWarning" not in out.stderr
        assert "  weyl-bound: n/a" in out.stdout and "  pinching: info (margin nan)" in out.stdout
        doc = json.loads((tmp_path / "report.json").read_text())
        assert not doc["converged"]

    def test_one_metric_reconstruction_per_solve(self, tmp_path, monkeypatch):
        # the verification is the solve's one curvature pass: the CSV holds no curvature
        calls = []
        inner = geometry.reconstruct_metric

        def counted(prof):
            calls.append(prof)
            return inner(prof)

        monkeypatch.setattr(geometry, "reconstruct_metric", counted)
        cfg = write_cfg(tmp_path, "system = su\nn = 5\nphi0 = 0.8\ngrid = 48\ntol = 1e-7\nquiet = 1\n")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) in (0, 2)
        assert len(calls) == 1

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

    def test_default_settings_reach_path_end(self, tmp_path):
        # with neither grid nor tol set, each step solves at the SweepPlan
        # defaults (grid 384, tol 3e-8); at the SolveOptions ones (grid 128,
        # tol 1e-10) this path stops min-step after lambda = 1.029
        cfg = write_cfg(tmp_path, "system = su\nn = 3\nphi0 = 1\nsweep_end = 1.5\n")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert lines[-1] == "# stop_reason=path-end"
        assert not any(line.startswith("# rejected=") for line in lines)

    def test_missing_sweep_end(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "system = su\nn = 3\nphi0 = 1\n")
        assert main(["sweep", "--config", cfg, "--quiet"]) == 1
        assert "config error: sweep_end is required for the sweep command" in capsys.readouterr().err

    def test_failed_sweep_exit_one(self, tmp_path, capsys, monkeypatch):
        def fail(plan):
            raise RuntimeError("the round-sphere solve failed; sweep cannot start")

        monkeypatch.setattr(cli, "sweep", fail)
        cfg = write_cfg(tmp_path, "system = su\nn = 3\nphi0 = 1\nsweep_end = 1.5\n")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 1
        assert "sweep error: the round-sphere solve failed" in capsys.readouterr().err
        assert not (tmp_path / "trace.csv").exists()


def test_cli_failure_messages_are_tested():
    # every message cli.py exits with through _fail is quoted in a test up to
    # its first formatted value (without the ": " before it), so each way a
    # command can fail is exercised somewhere; this lint's own source is not
    # searched
    root = Path(__file__).resolve().parents[1]
    prefixes = set()
    for node in ast.walk(ast.parse((root / "src" / "ccebvp" / "cli.py").read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_fail":
            msg = node.args[1]
            first = msg.values[0] if isinstance(msg, ast.JoinedStr) else msg
            assert isinstance(first, ast.Constant), ast.unparse(msg)  # a message opens with its own words
            prefixes.add(first.value.rstrip(": "))
    assert {"write failed", "cannot load profile", "config error"} <= prefixes
    own = inspect.getsource(test_cli_failure_messages_are_tested)
    tests = "".join(p.read_text().replace(own, "") for p in sorted((root / "tests").glob("*.py")))
    assert sorted(p for p in prefixes if p not in tests) == []


class TestReadmeKeyTable:
    OWNERS = {"run": "RunConfig", "bd": "BoundaryData", "options": "SolveOptions", "plan": "SweepPlan"}

    def test_table_matches_config_keys(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        table = readme[readme.index("| key | sets | default | rule |"):].split("\n\n", 1)[0]
        rows = [[c.strip().strip("`") for c in line.strip("|").split("|")] for line in table.splitlines()[2:]]
        assert [r[0] for r in rows] == list(config._KEYS)
        for key, sets, *_ in rows:
            where, name, _ = config._KEYS[key]
            assert sets == f"{self.OWNERS[where]}.{name}", key


class TestFlagsAreKeys:
    def test_every_run_flag_is_a_key(self):
        # each cce solve / cce sweep option but --config overrides the config key of its name
        sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        for command in ("solve", "sweep"):
            flags = [a for a in sub.choices[command]._actions if a.option_strings and a.dest not in ("help", "config")]
            assert flags, command
            for a in flags:
                assert a.dest in config._KEYS and a.option_strings == [f"--{a.dest}"], (command, a.dest)


class TestParserBuiltOnce:
    def test_two_calls_match_two_processes(self, tmp_path, monkeypatch):
        # a solve --quiet then a verify in one process build the parser once,
        # and give the exit codes and files of two fresh processes
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        cli.build_parser.cache_clear()
        cfg = write_cfg(tmp_path, "system = su\nn = 3\nphi0 = 1.5\ngrid = 24\ntol = 1e-6\n")
        one, two = tmp_path / "one", tmp_path / "two"
        argvs = [["solve", "--config", cfg, "--out", "{}", "--quiet"], ["verify", "{}/profile.csv"]]
        codes = [main([a.format(one) for a in argv]) for argv in argvs]
        assert len(built) == 5  # the parser and its four subcommands
        src = str(Path(__file__).resolve().parents[1] / "src")
        fresh = [subprocess.run([sys.executable, "-m", "ccebvp.cli", *(a.format(two) for a in argv)],
                                capture_output=True, env={**os.environ, "PYTHONPATH": src}, timeout=120).returncode
                 for argv in argvs]
        assert codes == fresh and codes[0] in (0, 2)
        assert (one / "profile.csv").read_bytes() == (two / "profile.csv").read_bytes()
        for name in ("report.json", "verify/report.json"):
            a, b = (json.loads((d / name).read_text()) for d in (one, two))
            assert a.pop("provenance")["config_hash"] == b.pop("provenance")["config_hash"]
            assert a == b


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [["solve", "--config", "run.cfg", "--bogus"], ["--bogus"], [], ["verify"]])
    def test_usage_error_exit_one(self, argv, capsys):
        # a command line argparse rejects is a config error, not the
        # converged-but-flagged exit 2, and main returns it without raising
        assert main(argv) == 1
        assert "usage: cce" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]])
    def test_help_exit_zero(self, argv, capsys):
        assert main(argv) == 0
        assert "usage: cce" in capsys.readouterr().out


class TestVerifyExport:
    def test_verify_single(self, small_profile, tmp_path):
        p = tmp_path / "profile.csv"
        export_profile_csv(small_profile, str(p))
        rc = main(["verify", str(p), "--out", str(tmp_path)])
        assert rc in (0, 2)
        assert (tmp_path / "report.json").exists()

    def test_verify_default_out_keeps_solve_report(self, tmp_path):
        # without --out, cce verify writes verify/report.json beside the
        # profile; the solve's report.json and its config_hash stay
        cfg = write_cfg(tmp_path, "system = gberger\nn = 3\nphi0 = 1,1\ngrid = 16\n")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        solved = (tmp_path / "report.json").read_text()
        assert main(["verify", str(tmp_path / "profile.csv")]) == 0
        assert (tmp_path / "report.json").read_text() == solved
        assert json.loads(solved)["provenance"]["config_hash"] == config_hash(Path(cfg).read_text())
        read_back = json.loads((tmp_path / "verify" / "report.json").read_text())
        assert read_back["provenance"]["config_hash"] == ""
        assert {**read_back, "provenance": None} == {**json.loads(solved), "provenance": None}

    def test_verify_pair(self, small_profile, tmp_path, capsys):
        p = tmp_path / "a.csv"
        export_profile_csv(small_profile, str(p))
        rc = main(["verify", str(p), str(p)])
        assert rc == 0
        outtext = capsys.readouterr().out
        assert outtext.splitlines() == ["V(z1) = 0.000000e+00", "V(z2) = 0.000000e+00", "forces_zero=True"]

    def test_verify_pair_prints_contractions(self, small_gb_profile, tmp_path, capsys):
        # a gberger pair prints one residual line per contraction inequality
        # after the V(z_i) lines; solves on two grids differ by less than the
        # slack of 100 tol, so V > 0 and still forces_zero
        other, _ = solve_bvp(small_gb_profile.bd, SolveOptions(grid=40, tol=1e-7, refine_rounds=0))
        p, q = tmp_path / "a.csv", tmp_path / "b.csv"
        export_profile_csv(small_gb_profile, str(p))
        export_profile_csv(other, str(q))
        assert main(["verify", str(p), str(q)]) == 0
        lines = capsys.readouterr().out.splitlines()
        ledger = verification.uniqueness_diagnostic(load_profile_csv(str(p)), load_profile_csv(str(q)))
        assert lines == [
            *(f"V(z{i + 1}) = {v:.6e}" for i, v in enumerate(ledger.variations)),
            *(f"{label}: residual {r:.6e}" for label, r in zip(verification.CONTRACTIONS, ledger.inequality_residuals)),
            "forces_zero=True",
        ]
        assert len(lines) == 7 and ledger.variations.min() > 0

    def test_pair_with_different_data_exit_one(self, small_profile, tmp_path, capsys):
        p, q = tmp_path / "a.csv", tmp_path / "b.csv"
        export_profile_csv(small_profile, str(p))
        q.write_text(p.read_text().replace("# phi0=0.85\n", "# phi0=0.9\n"))
        assert main(["verify", str(p), str(q)]) == 1
        assert "verify error: uniqueness diagnostic requires identical boundary data" in capsys.readouterr().err

    def test_headers_without_table_exit_three(self, small_profile, tmp_path, capsys):
        p = tmp_path / "profile.csv"
        export_profile_csv(small_profile, str(p))
        p.write_text("".join(line for line in p.read_text().splitlines(keepends=True) if line.startswith("#")))
        assert main(["verify", str(p), "--out", str(tmp_path)]) == 3
        assert "does not contain a profile table" in capsys.readouterr().err

    @pytest.mark.parametrize("column, value, named", [
        pytest.param("y1", "5000.0", "metric components overflow", id="5000.0-3"),
        pytest.param("y1", "800.0", "K is not finite", id="800.0-3"),
        pytest.param("y2", "800.0", "phi is not finite", id="y2-800.0-3"),
        pytest.param("y2", "-800.0", "Phi is not finite", id="y2--800.0-3"),
        pytest.param("k0var", "800.0", "K0 is not finite", id="k0var-800.0-3"),
    ])
    def test_metric_overflow_exit_three(self, small_profile, tmp_path, capsys, column, value, named):
        # a finite unknown whose metric or derived values overflow is named,
        # with no traceback and no RuntimeWarning: cce verify and cce export
        # read one finiteness rule, and neither writes a value that is not finite
        p = tmp_path / "profile.csv"
        export_profile_csv(small_profile, str(p))
        poison(p, column, value)
        for command, out, message in (("verify", "report.json", "cannot verify profile"),
                                      ("export", "profile.json", "cannot export profile")):
            assert main([command, str(p), "--out", str(tmp_path)]) == 3
            assert f"{message}: {named}" in capsys.readouterr().err
            assert not (tmp_path / out).exists()

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
        # the stored tol sets the drift gate and the uniqueness slack: tol=inf
        # would pass constraint-drift on any profile
        *(("tol", v, "'tol' must be positive and finite") for v in ("inf", "nan", "0", "-1")),
        ("converged", "maybe", "'converged' must be true or false, got 'maybe'"),
        # a second tol line would replace the gate that verification reads
        ("tol", "1e-07\n# tol=1", "profile header 'tol' is repeated"),
        ("grading", "endpoint-clustered\n# grading=uniform", "profile header 'grading' is repeated"),
    ])
    def test_bad_header_exit_three(self, small_profile, tmp_path, capsys, header, value, message):
        # a missing header line, one with the wrong count, or a repeated one is named on load
        p = tmp_path / "profile.csv"
        export_profile_csv(small_profile, str(p))
        line = "" if value is None else f"# {header}={value}\n"
        p.write_text(re.sub(f"^# {header}=.*\n", line, p.read_text(), flags=re.M))
        assert main(["verify", str(p), "--out", str(tmp_path)]) == 3
        assert message in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda line: line.replace("x,y1,y2,", "x,y1,z2,", 1), "'y2' is missing"),  # the column renamed
        (lambda line: line if line.startswith(("#", "x,")) else ",".join(line.split(",")[:2]) + "\n",
         "'y2' is missing"),  # rows cut
        # a second y1 column of zeros would replace the stored one
        (lambda line: line if line.startswith("#")
         else line.rstrip("\n") + (",y1\n" if line.startswith("x,") else ",0.0\n"), "'y1' is repeated"),
    ], ids=["renamed", "short-rows", "repeated"])
    def test_missing_column_exit_three(self, small_profile, tmp_path, capsys, edit, message):
        # a stored unknown's column that is not in the table, or a repeated column, is named on load
        p = tmp_path / "profile.csv"
        export_profile_csv(small_profile, str(p))
        p.write_text("".join(map(edit, p.read_text().splitlines(keepends=True))))
        assert main(["verify", str(p), "--out", str(tmp_path)]) == 3
        assert f"cannot load profile: profile column {message}" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_nan_node_exit_three(self, small_profile, tmp_path, capsys):
        # an interior x edited to nan is a load error, not a report of NaN margins
        p = tmp_path / "profile.csv"
        export_profile_csv(small_profile, str(p))
        lines = p.read_text().splitlines(keepends=True)
        row = next(i for i, line in enumerate(lines) if line.startswith("x,")) + 6
        lines[row] = "nan" + lines[row][lines[row].index(","):]
        p.write_text("".join(lines))
        assert main(["verify", str(p), "--out", str(tmp_path)]) == 3
        assert "cannot load profile" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("name, value", [("y1", "nan"), ("yp1", "inf"), ("free", "inf"), ("infinity_free", "nan")])
    def test_non_finite_value_exit_three(self, small_profile, tmp_path, capsys, name, value):
        # a non-finite unknown is a load error, not a traceback from the
        # curvature pass; a non-finite endpoint parameter is not a pass
        p = tmp_path / "profile.csv"
        export_profile_csv(small_profile, str(p))
        poison(p, name, value)
        assert main(["verify", str(p), "--out", str(tmp_path)]) == 3
        assert f"'{name}' is not finite" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_export_json(self, small_profile, tmp_path):
        p = tmp_path / "profile.csv"
        export_profile_csv(small_profile, str(p))
        assert main(["export", str(p), "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "profile.json").read_text())
        # every number is its shortest round-trip decimal string
        prof = load_profile_csv(str(p))

        def dec(values):
            return [fmt(v) for v in values]

        samples = geometry.curvature_samples(prof)
        I = samples.metric.I
        assert doc == {
            "schema": "cce-profile-json-v2",
            "system": "su",
            "n": 5,
            "phi0": ["0.85"],
            "K0": fmt(prof.k0),
            "converged": prof.converged,
            "x": dec(prof.mesh.nodes),
            "y": [dec(row) for row in prof.y],
            "yp": [dec(row) for row in prof.yp],
            "free": dec(prof.free.coeffs),
            "infinity_free": dec(prof.infinity_free),
            "K": dec(np.exp(prof.y[0])),
            "phi": [dec(np.exp(prof.y[1]))],
            "Phi": dec(prof.constraint_values()),
            "I": [dec(row) for row in I],
            "max_radial_curvature": dec(samples.values[: len(I)].max(axis=0)),
        }
        assert len(doc["x"]) == 64 and float(doc["K0"]) == small_profile.k0


class TestConfigHash:
    def test_value_is_stable(self):
        # the 16-hex sha256 prefix that report.json and event.json record
        assert config_hash("system = su\nn = 3\nphi0 = 1.5\n") == "60e40fef4030d42c"

    @pytest.mark.parametrize("text", ["system = su\nn = 3\nphi0 = 1.5\n", "# φ₀ für n=3\nphi0 = 1.5\n", ""])
    def test_matches_hashlib(self, text):
        assert config_hash(text) == hashlib.sha256(text.encode()).hexdigest()[:16]

    def test_fallback_without_builtin_sha256(self, monkeypatch):
        # a None entry in sys.modules makes its import raise ImportError
        monkeypatch.setitem(sys.modules, "_sha2", None)
        monkeypatch.setitem(sys.modules, "_sha256", None)
        assert config_hash("system = su\nn = 3\nphi0 = 1.5\n") == "60e40fef4030d42c"

    def test_solve_flags_are_hashed(self, tmp_path):
        # --grid and --tol override the config's keys, so they change the
        # recorded hash; --out and --quiet are not hashed, so a run with
        # neither --grid nor --tol records the hash of the file text alone.
        # The text has no final newline.
        text = "system = su\nn = 3\nphi0 = 1.5\ntol = 1e-6"
        cfg = write_cfg(tmp_path, text)
        runs = {"plain": [], "g64": ["--grid", "64"], "g96": ["--grid", "96"],
                "both": ["--tol", "1e-7", "--grid", "64"]}
        digests = {}
        for name, flags in runs.items():
            out = tmp_path / name
            assert main(["solve", "--config", cfg, "--out", str(out), "--quiet", *flags]) in (0, 2)
            digests[name] = json.loads((out / "report.json").read_text())["provenance"]["config_hash"]
        assert digests["plain"] == config_hash(text)
        assert digests["g64"] == config_hash(text + "\ngrid = 64\n")
        assert digests["both"] == config_hash(text + "\ngrid = 64\ntol = 1e-7\n")
        assert len(set(digests.values())) == 4

    def test_no_command_loads_openssl(self, small_profile, tmp_path):
        # hashlib maps OpenSSL's libcrypto; config_hash uses CPython's built-in
        # SHA-256 instead. A fresh interpreter, since the test process may hold
        # _hashlib already. In it, LAPACK's band LU is bound on the first
        # factor only: not by any import, nor by verify or export, which never
        # factor, while solve binds it.
        p = tmp_path / "profile.csv"
        export_profile_csv(small_profile, str(p))
        solve_cfg = write_cfg(tmp_path, "system = su\nn = 3\nphi0 = 1.5\ngrid = 24\ntol = 1e-6\n", "solve.cfg")
        sweep_cfg = write_cfg(
            tmp_path, "system = su\nn = 3\nphi0 = 1\ngrid = 24\ntol = 1e-6\nsweep_end = 0.9\n", "sweep.cfg"
        )
        out = str(tmp_path / "out")
        code = (
            "import importlib, pkgutil, sys\n"
            "import ccebvp\n"
            "for m in pkgutil.iter_modules(ccebvp.__path__):\n"
            "    importlib.import_module(f'ccebvp.{m.name}')\n"
            "from ccebvp.cli import main\n"
            "from ccebvp.factor import lapack_gbtrf\n"
            "bound = [lapack_gbtrf.cache_info().currsize]\n"
            f"assert main(['verify', {str(p)!r}, '--out', {str(tmp_path)!r}]) in (0, 2)\n"
            f"assert main(['export', {str(p)!r}, '--out', {str(tmp_path)!r}]) == 0\n"
            "bound.append(lapack_gbtrf.cache_info().currsize)\n"
            f"assert main(['solve', '--config', {solve_cfg!r}, '--out', {out!r}, '--quiet']) in (0, 2)\n"
            "bound.append(lapack_gbtrf.cache_info().currsize)\n"
            f"assert main(['sweep', '--config', {sweep_cfg!r}, '--out', {out!r}, '--quiet']) in (0, 2)\n"
            "print(bound)\n"
            "print('_hashlib' in sys.modules)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert res.stdout.splitlines()[-2:] == ["[0, 0, 1]", "False"]
        assert (tmp_path / "report.json").exists() and (tmp_path / "profile.json").exists()
        for name in ("report.json", "profile.csv", "trace.csv"):
            assert (tmp_path / "out" / name).exists()


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


class TestSweepTelemetry:
    def test_trace_csv_lists_rejected_steps(self, tmp_path, capsys):
        # the rejected steps that cce sweep prints are read back from trace.csv
        cfg = write_cfg(
            tmp_path,
            "system = su\nn = 3\nphi0 = 1\ngrid = 24\ntol = 1e-12\n"
            "sweep_end = 0.5\nsweep_step = 0.05\nsweep_min_step = 0.02\n",
        )
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
        printed = [line.strip() for line in capsys.readouterr().out.splitlines()[1:]]
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        rejected = [line[len("# rejected="):].split(",", 1) for line in lines if line.startswith("# rejected=")]
        assert [lam for lam, _ in rejected] == ["0.95", "0.975"]
        assert printed == [f"rejected lambda={lam}: {reason}" for lam, reason in rejected]
        assert lines[-1] == "# stop_reason=min-step"

    def test_trace_csv_records_start_residual(self, tmp_path):
        # each row's start_residual is the residual of its predicted start:
        # zero at the round seed, and at most tol exactly where no Newton
        # iteration was needed
        cfg = write_cfg(
            tmp_path,
            "system = su\nn = 3\nphi0 = 1\ngrid = 96\ntol = 1e-6\n"
            "sweep_end = 0.85\nsweep_step = 0.05\n",
        )
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        lines = [l for l in (tmp_path / "trace.csv").read_text().splitlines() if not l.startswith("#")]
        names = lines[0].split(",")
        assert names[names.index("iterations") + 1] == "start_residual"
        rows = [dict(zip(names, l.split(","))) for l in lines[1:]]
        assert len(rows) == 4 and float(rows[0]["start_residual"]) == 0.0
        for row in rows:
            r = float(row["start_residual"])
            assert np.isfinite(r) and (r <= 1e-6) == (row["iterations"] == "0")

    def test_event_json_records_solves(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            "system = su\nn = 3\nphi0 = 1\ngrid = 96\ntol = 1e-6\n"
            "sweep_end = 2.5\nsweep_step = 0.1\nsweep_max_step = 0.2\n",
        )
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        doc = json.loads((tmp_path / "event.json").read_text())
        assert doc["solves"] > 0 and f"solves={doc['solves']}" in out
        assert not any(line.startswith("# rejected=") for line in (tmp_path / "trace.csv").read_text().splitlines())


class TestFlaggedExit:
    def test_converged_but_flagged_exit_two(self, tmp_path, monkeypatch):
        # a converged solve whose report carries a failing check exits 2 and
        # writes that check; the failing record is appended to the real report
        def flagged(*args):
            report = verification.run_verification(*args)
            report.records.append(verification.CheckRecord.at_most("forced", "forced", 1.0, 0.0))
            return report

        monkeypatch.setattr(cli, "run_verification", flagged)
        cfg = write_cfg(tmp_path, "system = gberger\nn = 3\nphi0 = 1,1\ngrid = 16\n")
        rc = main(["solve", "--config", cfg, "--out", str(tmp_path), "--quiet"])
        assert rc == 2
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["converged"] is True and doc["overall_pass"] is False
        assert [c["name"] for c in doc["checks"] if c["passed"] is False] == ["forced"]

    def test_outside_hypothesis_range_na_exit_zero(self, tmp_path):
        # converges, but phi2 dips 1.1e-3 below phi2(0): data outside the
        # monotonicity hypothesis, where both range-ratio checks read n/a
        # as the monotone-ratio checks do, so the report passes
        cfg = write_cfg(
            tmp_path, "system = gberger\nn = 3\nphi0 = 0.5,0.5\ngrid = 64\ntol = 1e-8\n"
        )
        rc = main(["solve", "--config", cfg, "--out", str(tmp_path), "--quiet"])
        assert rc == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["converged"] is True and doc["overall_pass"] is True
        na = [c["name"] for c in doc["checks"] if not c["applicable"]]
        assert [name for name in na if "ratio" in name] == [
            "monotone-ratio-1", "monotone-ratio-2", "monotone-ratio-product", "range-ratio-1", "range-ratio-2"]

    def test_loose_tol_drift_under_gate_exit_zero(self, tmp_path):
        # converged with the drift under its gate of 10 tol, the one rule
        # for the first integral, so the report passes
        cfg = write_cfg(
            tmp_path, "system = su\nn = 3\nphi0 = 0.31\ngrid = 128\ntol = 1e-6\n"
        )
        rc = main(["solve", "--config", cfg, "--out", str(tmp_path), "--quiet"])
        assert rc == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["converged"] is True and doc["overall_pass"] is True


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

    @pytest.mark.parametrize("flag", [["--tol", "-1"], ["--grid", "2"], ["--tol", "inf"]])
    def test_bad_flag_exits_before_solving(self, tmp_path, monkeypatch, flag):
        calls = []
        monkeypatch.setattr(cli, "solve_bvp", lambda *a: calls.append(a))
        cfg = write_cfg(tmp_path, "system = gberger\nn = 3\nphi0 = 1,1\n")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path), "--quiet", *flag]) == 1
        assert calls == []
