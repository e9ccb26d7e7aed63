"""CLI behavior: subcommands, config validation, exit codes, artifacts."""
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import chernlab
from chernlab.cli import main, read_config_file
from chernlab.experiments import REGISTRY, ConfigError, validate_config


class TestConfigValidation:
    def test_unknown_key_rejected(self):
        spec = REGISTRY["lkandapdn-pairing"]
        with pytest.raises(ConfigError):
            validate_config(spec, {"nonsense": "1"})

    def test_type_coercion(self):
        spec = REGISTRY["compmpmpnpanf-calibration"]
        cfg = validate_config(spec, {"m_max": "12", "kappa_rel_tol": "0.5"})
        assert cfg["m_max"] == 12 and isinstance(cfg["m_max"], int)
        assert cfg["kappa_rel_tol"] == 0.5

    def test_every_default_is_int_or_float(self):
        # validate_config parses a value as type(default)(raw), which a bool
        # key would get wrong: bool("false") is True
        bad = {(spec.name, key): type(v).__name__ for spec in REGISTRY.values()
               for key, v in spec.defaults.items() if type(v) not in (int, float)}
        assert not bad

    def test_unparseable_value_rejected(self):
        spec = REGISTRY["compmpmpnpanf-calibration"]
        with pytest.raises(ConfigError):
            validate_config(spec, {"m_max": "twelve"})

    def test_range_bounds_are_inclusive(self):
        spec = REGISTRY["hochschild-cocycle-vanishing"]
        cfg = validate_config(spec, {"tuples": "1", "last_tol": "0", "l1_scale": "1e-300"})
        assert (cfg["tuples"], cfg["last_tol"], cfg["l1_scale"]) == (1, 0.0, 1e-300)
        for key, raw in (("tuples", "0"), ("last_tol", "-1e-300"), ("l1_scale", "0")):
            with pytest.raises(ConfigError, match=key):
                validate_config(spec, {key: raw})

    def test_config_file_parsing(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("# comment\nm_max = 10\n\nlevel_cap=30\n")
        assert read_config_file(p) == {"m_max": "10", "level_cap": "30"}

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigError):
            read_config_file(tmp_path / "absent")


# keys whose bad values fail in validate_config; in the cases below they
# are the keys set out of range
CONFIG_CHECKED = ("tuples", "triples", "samples", "n_random", "n_wedges", "support",
                  "terms", "l1_scale", "stability_tol", "last_tol", "tolerance",
                  "slope_tol", "pair_cap", "separation_factor")


class TestExitCodes:
    def test_list_returns_zero(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "lkandapdn-pairing" in out
        assert len(out.strip().splitlines()) >= 12

    def test_run_pass_returns_zero(self, tmp_path, capsys):
        code = main(["run", "lkandapdn-pairing", "--out", str(tmp_path)])
        assert code == 0
        assert "[PASS] lkandapdn-pairing" in capsys.readouterr().out

    def test_run_unknown_experiment_returns_two(self, capsys):
        assert main(["run", "no-such-experiment"]) == 2

    def test_run_unknown_key_returns_two(self, tmp_path, capsys):
        code = main(["run", "lkandapdn-pairing", "--out", str(tmp_path),
                     "--set", "bogus=1"])
        assert code == 2

    def test_malformed_set_returns_two(self, tmp_path):
        assert main(["run", "lkandapdn-pairing", "--out", str(tmp_path),
                     "--set", "novalue"]) == 2

    def test_usage_error_returns_two(self):
        assert main([]) == 2

    # without its guard this config loops forever, so it runs in a child
    # process: a regression then fails on the timeout instead of hanging
    MAY_HANG = ("smooth-vanishing-comega", ["degree=2"])

    @pytest.mark.parametrize("name, overrides", [
        ("svd-decay-szego", ["window_log2=14", "level_cap=14"]),
        ("svd-decay-szego", ["window_log2=40"]),
        ("svd-decay-szego", ["window_log2=62"]),
        ("approxomtienri-decay", ["j_max_log2=8"]),
        ("fourtedo-limit", ["m_max=3"]),
        ("fourtedo-operator-crosscheck", ["m_max=3"]),
        ("cyclicity-check", ["m_max=3"]),
        ("hochschild-cocycle-vanishing", ["m_max=3"]),
        ("adnaodnaond-kernel-equivalence", ["n_shells=0"]),
        ("szego-diagonal-dense-check", ["window=0"]),
        ("smooth-vanishing-comega", ["degree=2"]),
        ("hochschild-cocycle-vanishing", ["terms=0"]),
        ("hochschild-cocycle-vanishing", ["l1_scale=nan"]),
        ("smooth-vanishing-comega", ["l1_scale=inf"]),
        ("ch-cc-normalization", ["stability_tol=-1"]),
        ("svd-decay-szego", ["level_cap=1"]),
        ("hochschild-cocycle-vanishing", ["tuples=0"]),
        ("chain-identities", ["n_random=0", "n_wedges=0"]),
        ("chain-identities", ["support=-1"]),
        ("smooth-vanishing-comega", ["l1_scale=0"]),
        ("adnaodnaond-kernel-equivalence", ["triples=0", "samples=0"]),
        ("hochschild-cocycle-vanishing", ["last_tol=-1"]),
        ("szego-diagonal-dense-check", ["tolerance=-1"]),
        ("svd-decay-szego", ["slope_tol=-1"]),
        ("approxomtienri-decay", ["pair_cap=0"]),
        ("approxomtienri-decay", ["pair_cap=-1"]),
        ("extended-limit-sensitivity", ["separation_factor=0"]),
        ("extended-limit-sensitivity", ["separation_factor=-1"]),
    ])
    def test_unrunnable_config_returns_two(self, tmp_path, capsys, name, overrides):
        # each raises ValueError before any heavy work: an oversized
        # spectrum or window, a cutoff that vanishes on the grid, an empty checkpoint
        # schedule (m_min > m_max, never replaced by a default), no torus
        # shell, an empty diagonal window, more distinct frequencies than
        # the degree has, a non-finite float, a negative tolerance,
        # a slope fit past the operator's rank, a count below 1 (a pair_cap
        # too), a zero l1_scale or a nonpositive separation_factor, none of
        # which may pass on no input or on a vacuous gate
        argv = ["run", name, "--out", str(tmp_path / "fresh" / "out")]
        for item in overrides:
            argv += ["--set", item]
        if (name, overrides) == self.MAY_HANG:
            env = dict(os.environ,
                       PYTHONPATH=str(Path(chernlab.__file__).resolve().parents[1]))
            done = subprocess.run([sys.executable, "-m", "chernlab.cli", *argv], env=env,
                                  capture_output=True, text=True, timeout=60)
            code, err = done.returncode, done.stderr
        else:
            code, err = main(argv), capsys.readouterr().err
        assert code == 2
        # validate_config rejects a non-finite float, a count below 1, a
        # nonpositive scale and a negative tolerance as config errors
        keys = {item.split("=")[0] for item in overrides}
        config_error = (any(item.endswith(("=nan", "=inf")) for item in overrides)
                        or bool(keys & set(CONFIG_CHECKED)))
        prefix = "config error: " if config_error else "error: "
        assert err.startswith(prefix) and len(err.strip().splitlines()) == 1
        # the run created both directories, so it removes them again
        assert not (tmp_path / "fresh").exists()

    @pytest.mark.parametrize("name, overrides", [
        ("svd-decay-szego", ["window_log2=8", "level_cap=8", "count=128",
                             "fit_lo=100", "fit_hi=101"]),
        ("svd-decay-szego", ["window_log2=8", "level_cap=8", "count=128",
                             "fit_lo=200"]),
        ("approxomtienri-decay", ["grid=256", "j_max_log2=1"]),
        ("approxomtienri-decay", ["grid=256", "j_max_log2=0"]),
    ])
    def test_fit_with_fewer_than_two_points_returns_two(self, tmp_path, capsys,
                                                        name, overrides):
        # a one-point or empty fit used to report a slope (or a cutoff the
        # config never asked for); it is now rejected before any work
        argv = ["run", name, "--out", str(tmp_path / "fresh")]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "at least two" in err
        assert not (tmp_path / "fresh").exists()

    @pytest.mark.parametrize("name, grid", [
        ("approxomtienri-decay", 1_000_000),       # a 10^12-point product grid
        ("holder-seminorm-witness", 100_000_000),  # a 10^8-point circle
    ])
    def test_oversized_grid_returns_two_at_once(self, tmp_path, capsys, name, grid):
        # refused by the grid budget before any grid-sized array is made
        start = time.perf_counter()
        code = main(["run", name, "--out", str(tmp_path / "fresh"),
                     "--set", f"grid={grid}"])
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert "MAX_GRID_POINTS" in err
        assert not (tmp_path / "fresh").exists()

    # an oversized window used to be listed in Python before the window
    # budget could refuse it; the child caps its own address space, so a
    # regression fails on a MemoryError instead
    CHILD_MEMORY_CAP = 3 << 30

    def _assert_refused_in_capped_child(self, tmp_path, name, setting, budget):
        script = ("import resource, sys, time\n"
                  "cap = int(sys.argv[1])\n"
                  "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
                  "from chernlab.cli import main\n"
                  "start = time.perf_counter()\n"
                  "code = main(sys.argv[2:])\n"
                  "print(time.perf_counter() - start)\n"
                  "sys.exit(code)\n")
        env = dict(os.environ, PYTHONPATH=str(Path(chernlab.__file__).resolve().parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", script, str(self.CHILD_MEMORY_CAP), "run",
             name, "--out", str(tmp_path / "fresh"), "--set", setting],
            env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 2, done.stderr
        assert float(done.stdout) < 1.0
        assert done.stderr.startswith("error: ") and len(done.stderr.strip().splitlines()) == 1
        assert budget in done.stderr
        assert not (tmp_path / "fresh").exists()

    # the wedge's operator path listed range(2^m_max), 67 million ints at
    # m_max=26
    @pytest.mark.parametrize("m_max", [26, 62])
    def test_oversized_wedge_window_returns_two_at_once(self, tmp_path, m_max):
        self._assert_refused_in_capped_child(
            tmp_path, "fourtedo-operator-crosscheck", f"m_max={m_max}", "MAX_WINDOW_DIM")

    # the wedge's window is its largest commutator radius, 2^level_cap, so
    # 24 is the least cap whose window has more than MAX_WINDOW_DIM rows
    def test_oversized_wedge_level_cap_returns_two_at_once(self, tmp_path):
        self._assert_refused_in_capped_child(
            tmp_path, "fourtedo-operator-crosscheck", "level_cap_operator=24",
            "MAX_WINDOW_DIM")

    # the window fits MAX_WINDOW_DIM, but the entries did not: each wedge
    # commutator holds 2^24 - 1 at cap 23, and each multiplication operator
    # of the dense check about 185 million at level_cap 22 (its window has
    # 8 389 631 rows); both used to end in an out-of-memory traceback
    @pytest.mark.parametrize("name, setting", [
        ("fourtedo-operator-crosscheck", "level_cap_operator=23"),
        ("szego-diagonal-dense-check", "level_cap=22"),
    ])
    def test_oversized_operator_returns_two_at_once(self, tmp_path, name, setting):
        self._assert_refused_in_capped_child(tmp_path, name, setting, "MAX_OPERATOR_ENTRIES")

    # torus_shells listed its box of lattice points, about 32 n of them, as
    # Python pairs before any budget check: 8 * 10^9 at n_shells=10^9, and
    # 33.5 million (about 5 GB) at 4187617, whose first box has just under
    # MAX_WINDOW_DIM points; 64800 is the least n whose box is refused
    @pytest.mark.parametrize("n_shells", [10 ** 9, 4_187_617, 64_800])
    def test_oversized_shell_box_returns_two_at_once(self, tmp_path, n_shells):
        self._assert_refused_in_capped_child(
            tmp_path, "adnaodnaond-kernel-equivalence", f"n_shells={n_shells}",
            "MAX_SHELL_BOX")

    # with m_min=0 the first checkpoint is N = 1, and when it is among the
    # probe's last PROBE_TAIL the a + b/m fit divides by m = log2 1 = 0:
    # LAPACK used to print "DLASCL parameter number 4 had an illegal value"
    # to the process's stdout, and the run ended on "SVD did not converge";
    # a child process sees what LAPACK writes outside Python
    @pytest.mark.parametrize("name, m_max", [
        ("fourtedo-limit", 4),
        ("fourtedo-operator-crosscheck", 4),
        ("compmpmpnpanf-calibration", 5),
        ("extended-limit-sensitivity", 5),
    ])
    def test_probe_of_an_n_one_checkpoint_returns_two(self, tmp_path, name, m_max):
        env = dict(os.environ, PYTHONPATH=str(Path(chernlab.__file__).resolve().parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "chernlab.cli", "run", name, "--out",
             str(tmp_path / "fresh"), "--set", "m_min=0", "--set", f"m_max={m_max}"],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 2
        assert done.stderr.startswith("error: ") and len(done.stderr.strip().splitlines()) == 1
        assert "N = 1 (m = 0) is among them" in done.stderr
        assert "DLASCL" not in done.stderr + done.stdout
        assert not (tmp_path / "fresh").exists()

    def test_failed_run_keeps_an_existing_directory(self, tmp_path):
        (tmp_path / "keep.txt").write_text("x")
        assert main(["run", "approxomtienri-decay", "--out", str(tmp_path),
                     "--set", "j_max_log2=8"]) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["keep.txt"]

    def test_failed_assertion_returns_one(self, tmp_path, capsys):
        # an unattainably tight tolerance forces a clean assertion failure
        code = main(["run", "compmpmpnpanf-calibration", "--out", str(tmp_path),
                     "--set", "kappa_rel_tol=1e-15", "--set", "m_max=12"])
        assert code == 1


class TestArtifacts:
    def test_report_json_schema(self, tmp_path):
        main(["run", "lkandapdn-pairing", "--out", str(tmp_path)])
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["experiment"] == "lkandapdn-pairing"
        assert report["passed"] is True
        assert report["anchor"]
        assert report["module"] == "cocycle_engine"
        assert all({"name", "passed", "measured"} <= set(a)
                   for a in report["assertions"])

    def test_csv_artifacts_are_byte_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["run", "compmpmpnpanf-calibration", "--out", str(a),
              "--set", "m_max=12"])
        main(["run", "compmpmpnpanf-calibration", "--out", str(b),
              "--set", "m_max=12"])
        csvs = sorted(p.name for p in a.glob("*.csv"))
        assert csvs
        for name in csvs:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_config_echo_in_report(self, tmp_path):
        main(["run", "compmpmpnpanf-calibration", "--out", str(tmp_path),
              "--set", "m_max=12"])
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["config"]["m_max"] == 12


class TestCatalog:
    def test_catalog_size_and_required_names(self):
        required = {"lkandapdn-pairing", "compmpmpnpanf-calibration",
                    "fourtedo-limit", "adnaodnaond-kernel-equivalence",
                    "approxomtienri-decay", "hochschild-cocycle-vanishing",
                    "svd-decay-szego", "chain-identities"}
        assert required <= set(REGISTRY)
        assert len(REGISTRY) >= 12

    def test_every_entry_names_module_and_anchor(self):
        for spec in REGISTRY.values():
            assert spec.module in {"seq_core", "op_core", "trace_lab",
                                   "cocycle_engine", "chain_alg",
                                   "metric_lab", "cli"}
            assert spec.anchor
            assert spec.description
