import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fdiscc.channels import draw_channels
from fdiscc.config import (CacheConfig, ConfigError, GeometryConfig, PathLossConfig,
                           SystemConfig, config_from_dict, desk_config)
from fdiscc.harness import (RUN_CSV_COLUMNS, SWEEP_CSV_COLUMNS, SweepSpec,
                            aggregate, apply_parameter, evaluate_baseline,
                            load_sweep_spec, result_row, run_cell, run_sweep, write_csv)
from fdiscc.orchestrator import RunOptions, run


class TestValidate:
    def test_backhaul_rate_one_per_cp_ue(self):
        with pytest.raises(ConfigError, match="backhaul_rate"):
            desk_config(cache=CacheConfig(backhaul_rate=(1e8, 1e8, 1e8)))
        with pytest.raises(ConfigError, match="backhaul_rate"):
            desk_config(n_cp=0, cache=CacheConfig(backhaul_rate=(1e8, 1e8)))
        assert desk_config(cache=CacheConfig(backhaul_rate=(1e8, 2e8))).n_cp == 2
        assert desk_config(n_cp=0, cache=CacheConfig(backhaul_rate=1e8)).n_cp == 0

    @pytest.mark.parametrize("record, change", [
        (SystemConfig(), {"p_bs_watt": -1.0}),
        (SystemConfig(), {"n_tx": "4"}),
        (CacheConfig(), {"n_files": 0}),
        (GeometryConfig(), {"target_angle_rad": 4.0}),
        (PathLossConfig(), {"d0_m": 0.0}),
        (SweepSpec(parameter="skew", values=(1.0,)), {"n_seeds": 0}),
        (RunOptions(), {"max_iter": 0}),
    ], ids=["system", "system-kind", "cache", "geometry", "pathloss", "sweep-spec",
            "run-options"])
    def test_replace_checks_the_new_record(self, record, change):
        # every record checks itself when built, and replace builds one
        with pytest.raises(ConfigError, match=next(iter(change))):
            replace(record, **change)

    def test_fault_in_a_check_is_not_a_config_error(self, monkeypatch):
        # only a bad value is a config error; a fault inside a check keeps
        # its own type and traceback
        def faulty(record):
            raise TypeError("fault inside a check")

        monkeypatch.setattr(GeometryConfig, "__post_init__", faulty)
        with pytest.raises(TypeError, match="fault inside a check"):
            config_from_dict({"geometry": {}})

    def test_two_configs_per_sweep_cell_none_per_run(self, monkeypatch):
        # a cell's config is built once to key it and once to run it; the
        # run and the channel draw take the config as it is
        built = []
        post_init = SystemConfig.__post_init__

        def counted(cfg):
            built.append(cfg)
            post_init(cfg)

        monkeypatch.setattr(SystemConfig, "__post_init__", counted)
        cfg = _shared_cfg()
        spec = SweepSpec(parameter="skew", values=(0.8, 1.4), schemes=CACHE_SCHEMES,
                         n_seeds=2, max_iter=2)
        built.clear()
        rows = run_sweep(spec, base_cfg=cfg)
        assert 0 < len(built) <= 2 * len(rows)
        built.clear()
        evaluate_baseline(cfg, draw_channels(cfg), "proposed", max_iter=2, solves={})
        assert built == []


class TestSweepSpec:
    def test_load_and_validate(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "parameter": "m_passive", "values": [8, 16], "schemes": ["proposed"],
            "n_seeds": 2, "output": "rows.csv"}))
        spec = load_sweep_spec(path)
        assert spec.parameter == "m_passive"
        assert spec.values == (8, 16)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ConfigError):
            SweepSpec(parameter="bogus", values=(1,))

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigError):
            SweepSpec(parameter="m_passive", values=(8,), schemes=("zzz",))

    def test_nonphysical_values_rejected(self):
        with pytest.raises(ConfigError):
            SweepSpec(parameter="p_bs_watt", values=(-1.0,))
        with pytest.raises(ConfigError):
            SweepSpec(parameter="m_passive", values=(2.5,))

    def test_seed_base_and_max_iter_ranges(self):
        for bad in ({"seed_base": -1}, {"max_iter": 0}):
            with pytest.raises(ConfigError, match=next(iter(bad))):
                SweepSpec(parameter="m_passive", values=(8,), **bad)

    def test_base_config_checked_when_built(self):
        with pytest.raises(ConfigError, match="base_config: p_bs_watt"):
            SweepSpec(parameter="m_passive", values=(8,), base_config={"p_bs_watt": -1})

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"parameter": "m_passive", "values": [8],
                                    "bogus_key": 1}))
        with pytest.raises(ConfigError, match="bogus_key"):
            load_sweep_spec(path)


class TestApplyParameter:
    def test_scalar_fields(self):
        cfg = desk_config()
        assert apply_parameter(cfg, "p_bs_watt", 0.5).p_bs_watt == 0.5
        assert apply_parameter(cfg, "m_passive", 24).m_passive == 24
        assert apply_parameter(cfg, "n_tx", 6).n_tx == 6

    def test_cache_fields(self):
        cfg = desk_config()
        assert apply_parameter(cfg, "skew", 0.8).cache.skew == 0.8
        assert apply_parameter(cfg, "backhaul_rate", 5e7).cache.backhaul_rate == 5e7


class TestRows:
    def test_row_count_arithmetic(self):
        spec = SweepSpec(parameter="m_passive", values=(4, 6), schemes=("proposed", "hd"),
                         n_seeds=2, max_iter=2)
        cfg = desk_config(m_passive=8, m_active=2, n_cm=1, n_cp=1)
        rows = run_sweep(spec, base_cfg=cfg)
        assert len(rows) == 2 * 2 * 2
        assert all(set(SWEEP_CSV_COLUMNS) <= set(r.keys()) for r in rows)

    def test_rows_sorted_deterministically(self):
        spec = SweepSpec(parameter="m_passive", values=(6, 4), schemes=("hd", "proposed"),
                         n_seeds=2, max_iter=2)
        cfg = desk_config(m_passive=8, m_active=2, n_cm=1, n_cp=1)
        rows = run_sweep(spec, base_cfg=cfg)
        keys = [(r["m_passive"], r["scheme"], r["seed"]) for r in rows]
        assert keys == sorted(keys)

    def test_cell_determinism(self):
        cfg = desk_config(m_passive=6, m_active=2, n_cm=1, n_cp=1)
        a = run_cell(cfg, "m_passive", 6, "proposed", 1, max_iter=3)
        b = run_cell(cfg, "m_passive", 6, "proposed", 1, max_iter=3)
        a.pop("wall_time_s")
        b.pop("wall_time_s")
        assert a == b

    def test_pool_capped_at_cell_count(self, monkeypatch):
        # a stand-in executor runs the cells in this process and records how
        # it was built; no worker process starts
        from fdiscc import harness
        built, env_seen = [], []

        class FakePool:
            def __init__(self, max_workers, mp_context=None):
                built.append((max_workers, mp_context.get_start_method()))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                env_seen.append({v: os.environ.get(v) for v in harness.BLAS_THREAD_VARS})
                return [fn(item) for item in items]

        monkeypatch.setattr(harness, "ProcessPoolExecutor", FakePool)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        before = dict(os.environ)
        spec = SweepSpec(parameter="m_passive", values=(4,), schemes=("proposed",),
                         n_seeds=2, max_iter=1)
        cfg = desk_config(m_passive=8, m_active=2, n_cm=1, n_cp=1)
        rows = run_sweep(spec, base_cfg=cfg, workers=64)
        assert built == [(2, "spawn")]
        assert env_seen == [dict.fromkeys(harness.BLAS_THREAD_VARS, "1")]
        assert dict(os.environ) == before
        assert len(rows) == 2
        # one cell, or one worker, needs no pool
        run_sweep(replace(spec, n_seeds=1), base_cfg=cfg, workers=64)
        run_sweep(spec, base_cfg=cfg, workers=1)
        assert len(built) == 1

    def test_two_workers_give_the_serial_rows(self):
        spec = SweepSpec(parameter="m_passive", values=(4, 6), schemes=("proposed",),
                         n_seeds=2, max_iter=2)
        cfg = desk_config(m_passive=8, m_active=2, n_cm=1, n_cp=1, gamma_tar_linear=1.0)
        serial = run_sweep(spec, base_cfg=cfg, workers=1)
        pooled = run_sweep(spec, base_cfg=cfg, workers=2)
        for row in serial + pooled:
            row.pop("wall_time_s")
        assert any(row["iterations"] > 0 for row in serial)
        assert repr(pooled) == repr(serial)     # repr: equal floats, NaN residuals too

    def test_csv_write_fixed_header(self, tmp_path):
        cfg = desk_config(m_passive=6, m_active=2, n_cm=1, n_cp=1)
        row = run_cell(cfg, "m_passive", 6, "proposed", 0, max_iter=2)
        path = tmp_path / "rows.csv"
        write_csv([row], SWEEP_CSV_COLUMNS, path)
        with open(path) as fh:
            header = next(csv.reader(fh))
        assert tuple(header) == SWEEP_CSV_COLUMNS


CACHE_SCHEMES = ("proposed", "random-caching", "no-caching")


def _shared_cfg():
    return desk_config(m_passive=8, m_active=2, gamma_tar_linear=1.0,
                       cache=CacheConfig(n_files=400, capacity=2e6, lengths=1e5))


def _unshared_rows(spec, cfg):
    """Every cell of the spec through ``run_cell`` alone: no solve is shared."""
    rows = [run_cell(cfg, spec.parameter, value, scheme, spec.seed_base + i, spec.max_iter)
            for value in spec.values for scheme in spec.schemes for i in range(spec.n_seeds)]
    rows.sort(key=lambda r: (r[spec.parameter], r["scheme"], r["seed"]))
    return rows


def _timeless(rows):
    for row in rows:
        row.pop("wall_time_s")
    return rows


class TestSharedSolves:
    @pytest.fixture(scope="class")
    def desk(self):
        cfg = desk_config(seed=3)
        return cfg, draw_channels(cfg)

    def test_results_own_their_arrays(self, desk):
        cfg, ch = desk
        solves = {}
        a = evaluate_baseline(cfg, ch, "proposed", max_iter=3, solves=solves)
        b = evaluate_baseline(cfg, ch, "no-caching", max_iter=3, solves=solves)
        assert len(solves) == 1
        assert np.array_equal(a.solution.w, b.solution.w)
        before = [np.copy(x) for x in (b.solution.w, b.solution.p, b.metrics.rate_com)]
        for x in (a.solution.w, a.solution.u, a.solution.phi, a.solution.f, a.solution.p,
                  a.metrics.r_com, a.metrics.rate_com, a.metrics.rate_loc):
            x[...] = 0.0
        after = (b.solution.w, b.solution.p, b.metrics.rate_com)
        assert all(np.array_equal(x, y) for x, y in zip(before, after))
        c = evaluate_baseline(cfg, ch, "random-caching", max_iter=3, solves=solves)
        assert np.array_equal(c.solution.w, before[0])

    def test_equal_to_unshared(self, desk):
        cfg, ch = desk
        solves = {}
        evaluate_baseline(cfg, ch, "proposed", max_iter=3, solves=solves)
        shared = evaluate_baseline(cfg, ch, "random-caching", max_iter=3, solves=solves)
        alone = run(cfg, ch, RunOptions(scheme="random-caching", max_iter=3))
        untimed = [[replace(row, wall_ms=0.0) for row in r.trace] for r in (shared, alone)]
        assert repr(untimed[0]) == repr(untimed[1])
        assert shared.metrics.utility == alone.metrics.utility
        assert np.array_equal(shared.solution.e, alone.solution.e)


class TestSharedRadioSolves:
    @pytest.mark.parametrize("parameter,values,schemes", [
        ("skew", (0.8, 1.1, 1.4), CACHE_SCHEMES),
        ("backhaul_rate", (5e7, 1.5e8), ("hd", "full-offloading", "proposed", "no-caching")),
    ])
    def test_rows_equal_unshared_runs(self, parameter, values, schemes):
        spec = SweepSpec(parameter=parameter, values=values, schemes=schemes,
                         n_seeds=2, max_iter=3)
        cfg = _shared_cfg()
        shared = _timeless(run_sweep(spec, base_cfg=cfg))
        assert repr(shared) == repr(_timeless(_unshared_rows(spec, cfg)))
        assert len({row["utility_bits"] for row in shared}) > len(shared) // 2

    def test_one_radio_solve_per_key(self, monkeypatch):
        from fdiscc import orchestrator
        calls = []
        init = orchestrator.initialize

        def counted(cfg, *args, **kwargs):
            calls.append(cfg.m_passive)
            return init(cfg, *args, **kwargs)

        monkeypatch.setattr(orchestrator, "initialize", counted)
        cfg = _shared_cfg()
        spec = SweepSpec(parameter="skew", values=(0.8, 1.4), schemes=CACHE_SCHEMES,
                         n_seeds=3, max_iter=2)
        assert len(run_sweep(spec, base_cfg=cfg)) == 18
        assert len(calls) == 3
        # a radio parameter shares nothing across its values, only across
        # the caching schemes at one value
        calls.clear()
        spec = SweepSpec(parameter="m_passive", values=(6, 8), schemes=CACHE_SCHEMES,
                         n_seeds=2, max_iter=2)
        assert len(run_sweep(spec, base_cfg=cfg)) == 12
        assert sorted(calls) == [6, 6, 8, 8]

    def test_live_solves_bounded_and_channels_fresh(self, monkeypatch):
        from dataclasses import fields

        from fdiscc import harness
        from fdiscc.channels import draw_channels
        seen = []
        evaluate = harness.evaluate_baseline

        def recorded(cfg, ch, scheme, **kwargs):
            result = evaluate(cfg, ch, scheme, **kwargs)
            seen.append((cfg, ch, len(kwargs["solves"])))
            dicts[id(kwargs["solves"])] = kwargs["solves"]
            return result

        dicts = {}
        monkeypatch.setattr(harness, "evaluate_baseline", recorded)
        spec = SweepSpec(parameter="skew", values=(0.8, 1.1, 1.4), schemes=CACHE_SCHEMES,
                         n_seeds=3, max_iter=2)
        run_sweep(spec, base_cfg=_shared_cfg())
        assert len(seen) == 27
        assert max(n for _, _, n in seen) == spec.n_seeds
        assert [len(d) for d in dicts.values()] == [0]      # every solve dropped at the end
        assert len({id(ch) for _, ch, _ in seen}) == spec.n_seeds
        for cfg, ch, _ in seen:
            fresh = draw_channels(cfg)
            for f in fields(ch):
                assert np.array_equal(getattr(ch, f.name), getattr(fresh, f.name)), f.name

    def test_two_worker_skew_sweep_gives_the_serial_rows(self):
        spec = SweepSpec(parameter="skew", values=(0.8, 1.4), schemes=CACHE_SCHEMES,
                         n_seeds=2, max_iter=2)
        cfg = _shared_cfg()
        serial = _timeless(run_sweep(spec, base_cfg=cfg, workers=1))
        pooled = _timeless(run_sweep(spec, base_cfg=cfg, workers=2))
        assert repr(pooled) == repr(serial)


class TestAggregate:
    def test_single_row_median(self):
        rows = [{"scheme": "proposed", "m_passive": 8, "utility_bits": 5.0,
                 **{c: 1 for c in ("m_active", "n_tx", "n_rx", "n_cm", "n_cp",
                                   "p_bs_watt", "gamma_tar_linear",
                                   "backhaul_rate", "skew")}}]
        out = aggregate(rows, "m_passive")
        assert out[0]["utility_bits_median"] == 5.0
        assert out[0]["utility_bits_iqr"] == 0.0

    def test_median_vs_sort_oracle(self):
        rng = np.random.default_rng(0)
        vals = rng.normal(size=9)
        rows = [{"scheme": "proposed", "m_passive": 8, "utility_bits": float(v),
                 **{c: 1 for c in ("m_active", "n_tx", "n_rx", "n_cm", "n_cp",
                                   "p_bs_watt", "gamma_tar_linear",
                                   "backhaul_rate", "skew")}} for v in vals]
        out = aggregate(rows, "m_passive")
        assert out[0]["utility_bits_median"] == sorted(vals)[4]

    def test_swept_values_sorted_numerically(self):
        fixed = {c: 1 for c in ("m_active", "n_tx", "n_rx", "n_cm", "n_cp", "p_bs_watt",
                                "gamma_tar_linear", "backhaul_rate", "skew")}
        rows = [{"scheme": scheme, "m_passive": m, "utility_bits": float(m), **fixed}
                for m in (32, 8, 64, 16) for scheme in ("random-caching", "proposed")]
        out = aggregate(rows, "m_passive")
        assert [(r["value"], r["scheme"]) for r in out] == [
            (m, scheme) for m in (8, 16, 32, 64) for scheme in ("proposed", "random-caching")]

    def test_one_value_sweep_keeps_its_value(self):
        fixed = {c: 1 for c in ("m_active", "n_tx", "n_rx", "n_cm", "n_cp", "p_bs_watt",
                                "gamma_tar_linear", "backhaul_rate", "skew")}
        rows = [{"scheme": scheme, "m_passive": 8, "utility_bits": 1.0, **fixed}
                for scheme in ("random-caching", "proposed")]
        out = aggregate(rows, "m_passive")
        assert [(r["value"], r["scheme"]) for r in out] == [(8, "proposed"), (8, "random-caching")]

    def test_empty_group_errors(self):
        with pytest.raises(ValueError):
            aggregate([], "m_passive")


SRC_DIR = Path(__file__).resolve().parents[1] / "src"


def run_cli(args, cwd):
    # the child runs in ``cwd``, where a relative PYTHONPATH=src no longer
    # resolves, so put the absolute source directory in front
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "fdiscc.cli", *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


class TestCli:
    def test_run_deterministic_csvs(self, tmp_path):
        for sub in ("a", "b"):
            r = run_cli(["run", "--config", "default", "--seed", "1",
                         "--out", str(tmp_path / sub), "--max-iter", "4"], tmp_path)
            assert r.returncode == 0, r.stderr
        for name in ("metrics.csv", "trace.csv"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, name
        # every trace cell is a plain number: float() raises on the repr of a
        # numpy scalar, such as np.float64(-5.4e7)
        with open(tmp_path / "a" / "trace.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len([float(v) for row in rows for v in row.values()]) == 8 * len(rows) > 0

    def test_unknown_scheme_exit_code_2(self, tmp_path):
        r = run_cli(["run", "--scheme", "bogus", "--out", str(tmp_path)], tmp_path)
        assert r.returncode == 2

    def test_malformed_config_names_key(self, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"m_passive": 8, "not_a_key": 1}))
        r = run_cli(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")],
                    tmp_path)
        assert r.returncode == 2
        assert "not_a_key" in r.stderr

    @pytest.mark.parametrize("command, key, body", [
        ("run", "n_tx", {"n_tx": "4"}),
        ("run", "n_files", {"cache": {"n_files": "10"}}),
        ("run", "seed", {"seed": 1.5}),
        ("sweep", "values", {"parameter": "m_passive", "values": 5}),
        ("sweep", "values", {"parameter": "m_passive", "values": ["a"]}),
        ("sweep", "n_seeds", {"parameter": "m_passive", "values": [8], "n_seeds": "2"}),
        ("run", "p_bs_watt", {"p_bs_watt": math.nan}),
        ("run", "eta_rt", {"eta_rt": math.nan}),
        ("run", "p_bs_watt", {"p_bs_watt": 10 ** 400}),
        ("run", "user_x_range", {"geometry": {"user_x_range": [-math.inf, 10]}}),
        ("run", "lengths", {"cache": {"lengths": math.inf}}),
        ("sweep", "values", {"parameter": "p_bs_watt", "values": [math.nan]}),
        ("sweep", "p_bs_watt", {"parameter": "m_passive", "values": [8],
                                "base_config": {"p_bs_watt": math.nan}}),
        ("sweep", "schemes", {"parameter": "m_passive", "values": [8], "schemes": []}),
        ("sweep", "parameter", {"values": [8]}),
    ], ids=["n_tx-str", "n_files-str", "seed-float", "values-scalar", "values-str",
            "n_seeds-str", "p_bs-nan", "eta_rt-nan", "p_bs-beyond-float", "user-x-neg-inf",
            "lengths-inf", "values-nan", "base-p_bs-nan", "schemes-empty", "parameter-missing"])
    def test_wrongly_typed_value_exit_code_2(self, tmp_path, command, key, body):
        # exit code 1 means a sensing-infeasible scenario; a bad file is a
        # config error that names its key. JSON's NaN and Infinity are not
        # finite numbers.
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(body))
        flag = "--config" if command == "run" else "--spec"
        r = run_cli([command, flag, str(path), "--out", str(tmp_path / "o")], tmp_path)
        assert r.returncode == 2, r.stderr
        assert key in r.stderr
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("key, body", [
        ("d0_m", {"pathloss": {"d0_m": 0}}),
        ("lambda_linear", {"pathloss": {"lambda_linear": -1e-3}}),
        ("target_distance_m", {"geometry": {"target_distance_m": -3}}),
        ("user_x_range", {"geometry": {"user_x_range": [40, 10]}}),
        ("user_y_range", {"geometry": {"user_y_range": [1.0, 0.0]}}),
    ], ids=["d0-zero", "lambda-negative", "target-distance-negative", "user-x-reversed",
            "user-y-reversed"])
    def test_out_of_range_value_exit_code_2(self, tmp_path, key, body):
        # the error names the key the file set, not one derived from it
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(body))
        r = run_cli(["run", "--config", str(path), "--out", str(tmp_path / "o")], tmp_path)
        assert r.returncode == 2, r.stderr
        assert key in r.stderr and "eta_rt" not in r.stderr
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("args, body, key", [
        (["run", "--seed", "-3"], None, "seed"),
        (["run", "--config"], {"seed": -1}, "seed"),
        (["sweep", "--spec"], {"parameter": "m_passive", "values": [8], "seed_base": -5},
         "seed_base"),
        (["run", "--max-iter", "0"], None, "--max-iter"),
        (["run", "--max-iter", "-1"], None, "--max-iter"),
        (["sweep", "--spec"], {"parameter": "m_passive", "values": [8], "max_iter": 0},
         "max_iter"),
    ], ids=["run-seed-flag", "run-seed-file", "sweep-seed-base", "run-max-iter-0",
            "run-max-iter-neg", "sweep-max-iter-0"])
    def test_negative_seed_or_no_iteration_exit_code_2(self, tmp_path, args, body, key):
        # a negative seed has no random stream and max_iter < 1 runs no
        # iteration: both are config errors, not scenarios
        if body is not None:
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(body))
            args = [*args, str(path)]
        r = run_cli([*args, "--out", str(tmp_path / "o")], tmp_path)
        assert r.returncode == 2, r.stderr
        assert key in r.stderr
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("command, config", [
        ("run", {"m_passive": 8, "cache": {"backhaul_rate": [1e8, 1e8, 1e8]}}),
        ("sweep", {"cache": {"backhaul_rate": [1e8, 1e8, 1e8]}}),
        ("run", {"n_cp": 0, "m_passive": 8, "cache": {"backhaul_rate": []}}),
        ("sweep", {"n_cp": 0, "cache": {"backhaul_rate": []}}),
    ], ids=["run", "sweep", "run-empty", "sweep-empty"])
    def test_backhaul_rate_length_exit_code_2_before_any_solve(self, tmp_path, monkeypatch,
                                                              capsys, command, config):
        # one backhaul rate per CP-UE, or one shared by all: another length,
        # none included, is a config error, found before the first radio
        # solve rather than by pricing or writing the row after it
        from fdiscc import cli, orchestrator
        solves = []
        monkeypatch.setattr(orchestrator, "solve_radio", lambda *a: solves.append(a))
        body = (config if command == "run" else
                {"parameter": "m_passive", "values": [8], "base_config": config})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(body))
        flag = "--config" if command == "run" else "--spec"
        assert cli.main([command, flag, str(path), "--out", str(tmp_path / "o")]) == 2
        assert solves == []
        assert "backhaul_rate" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_missing_file_exit_code_2(self, tmp_path, command):
        flag = "--config" if command == "run" else "--spec"
        path = tmp_path / "missing.json"
        r = run_cli([command, flag, str(path), "--out", str(tmp_path / "o")], tmp_path)
        assert r.returncode == 2, r.stderr
        assert str(path) in r.stderr
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("body, reason", [
        (b"\xff\xfe{\x00}\x00", "not valid UTF-8 JSON"),
        (b"[1, 2]", "must be a JSON object"),
    ], ids=["utf16-bom", "json-list"])
    def test_unreadable_file_exit_code_2(self, tmp_path, command, body, reason):
        flag = "--config" if command == "run" else "--spec"
        path = tmp_path / "bad.json"
        path.write_bytes(body)
        r = run_cli([command, flag, str(path), "--out", str(tmp_path / "o")], tmp_path)
        assert r.returncode == 2, r.stderr
        assert str(path) in r.stderr and reason in r.stderr
        assert "Traceback" not in r.stderr

    def test_sweep_emits_rows(self, tmp_path):
        spec = {"parameter": "m_passive", "values": [4, 6], "schemes": ["proposed"],
                "n_seeds": 2, "output": "rows.csv", "max_iter": 2,
                "base_config": {"m_passive": 8, "m_active": 2, "n_cm": 1, "n_cp": 1,
                                "gamma_tar_linear": 1.0}}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        r = run_cli(["sweep", "--spec", str(spec_path), "--out", str(tmp_path)], tmp_path)
        assert r.returncode == 0, r.stderr
        with open(tmp_path / "rows.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert (tmp_path / "rows_aggregate.csv").exists()
        assert "sweep: 4 cells, 4 radio solves" in r.stdout

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_sweep_rejects_worker_count_below_one(self, tmp_path, workers):
        r = run_cli(["sweep", "--spec", str(tmp_path / "unread.json"),
                     "--workers", workers], tmp_path)
        assert r.returncode == 2
        assert "--workers" in r.stderr

    def test_selftest_passes(self, tmp_path):
        r = run_cli(["selftest"], tmp_path)
        assert r.returncode == 0, r.stdout + r.stderr
        assert "FAIL" not in r.stdout
        # every check of the suite ran: one lost in a move fails here
        assert r.stdout.count("[PASS]") == 16
