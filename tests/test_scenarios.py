import argparse
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from aggrekin import kinetic as kinetic_mod
from aggrekin import particles as part_mod
from aggrekin import scenarios as scenarios_mod
from aggrekin.cli import _build_parser
from aggrekin.cli import main as cli_main
from aggrekin.expconv import near_field
from aggrekin.fv import cfl_dt, extract_peaks
from aggrekin.kinetic import limit_experiment, write_limit_csv
from aggrekin.measures import bump_mass_unit
from aggrekin.scenarios import (
    _KNOWN_KEYS,
    _OPTIONAL,
    PRESET_NAMES,
    SCHEMA,
    SOLVERS,
    RunReport,
    ScenarioError,
    initial_cluster_set,
    initial_grid_state,
    load_scenario,
    make_kernel,
    preset,
    report_sync_analysis,
    run_scenario,
    scenario_from_dict,
    scenario_to_dict,
    write_scenario,
)

M0 = bump_mass_unit()


def quick_particle_config(tmp_path: Path, name="quick") -> Path:
    cfg = {
        "name": name,
        "params": {"chi1": 10.0, "chi2": 1.0},
        "kernel": {"kind": "exponential"},
        "initial": {
            "species1": {"clusters": [[-0.3, 0.05], [0.4, 0.025]]},
            "species2": {"clusters": [[0.0, 0.05]]},
        },
        "solver": "particles",
        "T": 1.0,
        "output_dir": str(tmp_path / name),
    }
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return path


class TestLoadScenario:
    def test_builtin_preset_name(self):
        s = load_scenario("example1")
        assert s.params.chi1 == 10.0 and s.params.chi2 == 1.0
        assert s.params.theta1 == 1.0 and s.params.theta2 == 1.0
        assert s.initial1["bumps"] == [[4.0, -0.5], [2.0, 0.5]]
        assert s.initial2["bumps"] == [[2.0, -0.15]]

    def test_preset_key_with_overrides_keeps_default_T(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"preset": "example2", "solver": "particles"}))
        s = load_scenario(path)
        assert s.T == 2.5
        assert s.initial1["bumps"] == [[2.0, -0.5], [4.0, 0.5]]

    def test_preset_key_alone_is_the_preset(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"preset": "example4"}))
        assert scenario_to_dict(load_scenario(path)) == scenario_to_dict(preset("example4"))

    @pytest.mark.parametrize("document", ["my preset", ["preset"], [1, 2]])
    def test_cli_refuses_a_document_that_is_no_object(self, tmp_path, capsys, document):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(document))
        assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload == {
            "error": "ScenarioError",
            "message": f"scenario: expected a JSON object, got {document!r}",
        }

    def test_unknown_solver_lists_valid_tags(self, tmp_path):
        path = quick_particle_config(tmp_path)
        data = json.loads(path.read_text())
        data["solver"] = "spectral"
        path.write_text(json.dumps(data))
        with pytest.raises(ScenarioError, match="fv, particles, kinetic, compare"):
            load_scenario(path)

    def test_unknown_key_is_named(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"params": {}, "initial": {}, "solver": "fv", "T": 1, "bogus": 2}))
        with pytest.raises(ScenarioError, match="bogus"):
            load_scenario(path)

    def test_negative_mass_rejected(self, tmp_path):
        path = quick_particle_config(tmp_path)
        data = json.loads(path.read_text())
        data["initial"]["species1"]["clusters"][0][1] = -1.0
        path.write_text(json.dumps(data))
        with pytest.raises(ScenarioError, match="species1"):
            load_scenario(path)

    @pytest.mark.parametrize(
        "species, clusters, index",
        [
            ("species1", [[0.0, 1e-17], [0.5, 1.0]], 0),
            # half a quantum of the total 1 + 2^-52 ties to the even multiple 0
            ("species2", [[0.0, 1.0], [0.5, 2.0**-52]], 1),
        ],
    )
    def test_a_cluster_mass_that_rounds_to_zero_is_named(self, tmp_path, capsys, species, clusters, index):
        path = quick_particle_config(tmp_path)
        data = json.loads(path.read_text())
        data["initial"][species]["clusters"] = clusters
        path.write_text(json.dumps(data))
        assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "ScenarioError"
        key = f"initial.{species}.clusters[{index}]:"
        assert payload["message"].startswith(key) and "rounds to 0" in payload["message"]
        # an explicit 0 carries no mass to lose, and loads
        data["initial"][species]["clusters"][index][1] = 0.0
        scenario_from_dict(data)

    def test_bad_cfl_safety_rejected(self, tmp_path):
        path = quick_particle_config(tmp_path)
        data = json.loads(path.read_text())
        data["cfl_safety"] = 1.0
        path.write_text(json.dumps(data))
        with pytest.raises(ScenarioError, match="cfl_safety"):
            load_scenario(path)

    def test_round_trip_is_identical(self, tmp_path):
        s = preset("example3")
        path = tmp_path / "echo.json"
        write_scenario(path, s)
        back = load_scenario(path)
        assert scenario_to_dict(back) == scenario_to_dict(s)
        path2 = tmp_path / "echo2.json"
        write_scenario(path2, back)
        assert path.read_bytes() == path2.read_bytes()

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_particle_settings_are_echoed_for_particle_runs_only(self, tmp_path, solver):
        particle = solver in ("particles", "compare")
        s = preset("example2", solver=solver)
        if particle:
            s = replace(s, dt_max=0.01, gap_tol=1e-8)
        d = scenario_to_dict(s)
        assert ("dt_max" in d, "gap_tol" in d) == (particle, particle)
        if particle:
            assert (d["dt_max"], d["gap_tol"]) == (0.01, 1e-8)
        path = tmp_path / "echo.json"
        write_scenario(path, s)
        assert load_scenario(path) == s

    def test_every_schema_key_is_structured_or_has_a_parser(self):
        structured = {"name", "params", "kernel", "initial", "solver", "grid", "T"}
        assert not structured & set(_OPTIONAL)
        assert structured | set(_OPTIONAL) == _KNOWN_KEYS
        # the optional keys are parsed and echoed in SCHEMA order
        words = [line.split()[0] for line in SCHEMA.splitlines() if line.strip()]
        assert list(_OPTIONAL) == [w for w in words if w in _OPTIONAL]

    def test_grid_solver_requires_grid(self):
        with pytest.raises(ScenarioError, match="grid"):
            scenario_from_dict(
                {
                    "params": {"chi1": 1.0, "chi2": 1.0},
                    "initial": {
                        "species1": {"bumps": [[1.0, 0.0]]},
                        "species2": {"bumps": []},
                    },
                    "solver": "fv",
                    "T": 1.0,
                }
            )

    @pytest.mark.parametrize(
        "path, value, key",
        [
            (("snapshot_times",), [0.0, float("nan")], "snapshot_times"),
            (("grid", "xmax"), float("inf"), "grid.xmax"),
            (("bump_width",), float("inf"), "bump_width"),
            (("epsilon",), float("inf"), "epsilon"),
            (("gap_tol",), float("inf"), "gap_tol"),
            (("initial", "species1", "bumps"), [[float("nan"), -0.5]], "initial.species1"),
        ],
    )
    def test_non_finite_value_is_named(self, tmp_path, path, value, key):
        data = scenario_to_dict(preset("example1", T=1.0))
        node = data
        for part in path[:-1]:
            node = node[part]
        node[path[-1]] = value
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        with pytest.raises(ScenarioError, match=key):
            load_scenario(cfg)


class TestPresets:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_initial_peak_masses_match_bump_units(self, name):
        s = preset(name)
        st = initial_grid_state(s)
        peaks = extract_peaks(st)
        bumps = sorted(
            [(c, a, 1) for a, c in s.initial1["bumps"]]
            + [(c, a, 2) for a, c in s.initial2["bumps"]],
            key=lambda b: b[0],
        )
        # bumps closer than 0.05 overlap on the grid and form one peak
        groups: list[list[tuple]] = []
        for bump in bumps:
            if groups and bump[0] - groups[-1][-1][0] < 0.05:
                groups[-1].append(bump)
            else:
                groups.append([bump])
        assert len(peaks) == len(groups)
        for peak, group in zip(peaks, groups):
            m1 = sum(a for _, a, sp in group if sp == 1)
            m2 = sum(a for _, a, sp in group if sp == 2)
            assert peak.mass1 == pytest.approx(m1 * M0, rel=0.01, abs=1e-12)
            assert peak.mass2 == pytest.approx(m2 * M0, rel=0.01, abs=1e-12)

    def test_unknown_preset(self):
        with pytest.raises(ScenarioError):
            preset("example9")

    def test_bumps_to_clusters_conversion(self):
        s = preset("example1")
        cs = initial_cluster_set(s)
        masses = [(c.position, c.m1 / M0, c.m2 / M0) for c in cs.clusters]
        assert masses[0] == pytest.approx((-0.5, 4.0, 0.0))
        assert masses[1] == pytest.approx((-0.15, 0.0, 2.0))
        assert masses[2] == pytest.approx((0.5, 2.0, 0.0))


class TestMakeKernel:
    def test_exponential(self):
        assert make_kernel({"kind": "exponential"}).inv_n == 0.0

    def test_regularized(self):
        k = make_kernel({"kind": "regularized", "n": 4})
        assert k.inv_n == 0.25
        # an integral float is that integer
        x = np.linspace(-0.5, 0.5, 11)
        assert np.array_equal(make_kernel({"kind": "regularized", "n": 4.0}).hat_deriv(x), k.hat_deriv(x))

    def test_one_spec_gives_one_kernel(self):
        # equal specs give equal, hash-equal kernels, so the stencil cache hits
        spec = {"kind": "regularized", "n": 20}
        a, b = make_kernel(spec), make_kernel(dict(spec))
        assert a == b and hash(a) == hash(b)
        near_field.cache_clear()
        near_field(a, 0.01)
        near_field(b, 0.01)
        assert near_field.cache_info().hits == 1 and near_field.cache_info().misses == 1

    def test_unknown_kind(self):
        with pytest.raises(ScenarioError):
            make_kernel({"kind": "newtonian"})

    @pytest.mark.parametrize(
        "spec, key",
        [
            ({"kind": "exponential", "n": 50}, "n"),
            ({"kind": "regularized", "n": 4, "typo": 1}, "typo"),
            ({"kind": "exponential", "width": 2.0}, "width"),
        ],
    )
    def test_unknown_key_is_named(self, tmp_path, spec, key):
        cfg = json.loads(quick_particle_config(tmp_path).read_text())
        with pytest.raises(ScenarioError, match=rf"^kernel\.{key}:"):
            scenario_from_dict({**cfg, "kernel": spec})

    def test_cli_names_an_unknown_kernel_key(self, tmp_path, capsys):
        path = quick_particle_config(tmp_path)
        cfg = json.loads(path.read_text())
        path.write_text(json.dumps({**cfg, "kernel": {"kind": "regularized", "n": 4, "typo": 1}}))
        assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "ScenarioError"
        assert payload["message"].startswith("kernel.typo:")
        assert not (tmp_path / "out").exists()


class TestRunScenario:
    def test_particle_run_writes_outputs(self, tmp_path):
        s = load_scenario(quick_particle_config(tmp_path))
        report = run_scenario(s)
        out = Path(s.output_dir)
        for fname in ("trajectories.csv", "events.json", "report.json", "scenario.json"):
            assert (out / fname).exists()
        assert report.conservation["mass1_drift"] == 0.0
        payload = json.loads((out / "report.json").read_text())
        assert payload["solver"] == "particles"

    def test_determinism_byte_identical(self, tmp_path):
        pa = quick_particle_config(tmp_path, "run_a")
        pb = quick_particle_config(tmp_path, "run_b")
        ra = run_scenario(load_scenario(pa))
        rb = run_scenario(load_scenario(pb))
        out_a = Path(json.loads(pa.read_text())["output_dir"])
        out_b = Path(json.loads(pb.read_text())["output_dir"])
        for fname in ("trajectories.csv", "events.json"):
            assert (out_a / fname).read_bytes() == (out_b / fname).read_bytes()

    def test_preset_advance_counts(self):
        # the four presets make 203 advance calls between them
        total = 0
        for name in PRESET_NAMES:
            s = preset(name, solver="particles")
            res = part_mod.run(
                initial_cluster_set(s), make_kernel(s.kernel_spec), s.params, s.T,
                dt_max=s.dt_max, gap_tol=s.gap_tol, snapshot_times=s.snapshot_times,
            )
            assert res.elapsed > 0.0
            total += res.n_advances
        assert total == 203

    @pytest.mark.filterwarnings("ignore::aggrekin.measures.CoarseGridWarning")
    def test_compare_solver_reports_agreement(self, tmp_path):
        s = preset("example1", solver="compare", dx=2e-3, T=1.2)
        s = replace(s, output_dir=str(tmp_path / "cmp"))
        report = run_scenario(s)
        matches = report.extra["event_agreement"]
        assert matches, "expected at least one matched event"
        contact = [m for m in matches if m["kind"] == "contact"][0]
        assert contact["dt"] < 0.05

    @pytest.mark.filterwarnings("ignore::aggrekin.measures.CoarseGridWarning")
    def test_kinetic_scenario_requires_positivity(self, tmp_path):
        s = preset("example1", solver="kinetic", dx=2e-3, T=0.1)
        s.output_dir = str(tmp_path / "kin")
        with pytest.raises(ScenarioError, match="chi"):
            run_scenario(s)

    def test_kinetic_scenario_runs_with_valid_params(self, tmp_path):
        cfg = {
            "name": "kin",
            "params": {"chi1": 0.45, "chi2": 0.3},
            "initial": {
                "species1": {"bumps": [[1.0, -0.4]]},
                "species2": {"bumps": [[1.0, 0.4]]},
            },
            "bump_width": 200.0,
            "solver": "kinetic",
            "grid": {"xmin": -2.0, "xmax": 2.0, "dx": 4e-3},
            "T": 0.2,
            "epsilon": 0.1,
            "snapshot_times": [0.0, 0.2],
            "output_dir": str(tmp_path / "kin"),
        }
        path = tmp_path / "kin.json"
        path.write_text(json.dumps(cfg))
        report = run_scenario(load_scenario(path))
        out = Path(cfg["output_dir"])
        assert (out / "kinetic_000.csv").exists()
        assert report.conservation["mass1_drift"] == 0.0

    def test_report_sync_analysis_table(self, tmp_path):
        s = load_scenario(quick_particle_config(tmp_path, "table"))
        report = run_scenario(s)
        text = report_sync_analysis(report)
        assert "LHS" in text and "RHS" in text
        assert "synchronise" in text or "separate" in text

    @pytest.mark.parametrize("solver", ["particles", "fv", "compare", "fv-contact"])
    def test_report_round_trips_through_dict_and_json(self, tmp_path, solver):
        if solver == "fv-contact":
            # example1 through its first contact, so the report holds an FV event
            s = preset("example1", solver="fv", dx=1.25e-3, T=1.0)
        else:
            s = preset("example1", solver=solver, T=0.05)
        s.output_dir = str(tmp_path / solver)
        report = run_scenario(s)
        assert RunReport.from_dict(report.to_dict()) == report
        written = json.loads((tmp_path / solver / "report.json").read_text())
        assert RunReport.from_dict(written) == report
        if solver == "fv-contact":
            assert [e["kind"] for e in report.events] == ["contact"]
            assert json.loads((tmp_path / solver / "fv_events.json").read_text()) == report.events


class TestReportManifest:
    @pytest.mark.filterwarnings("ignore::aggrekin.measures.CoarseGridWarning")
    @pytest.mark.parametrize("solver", ["particles", "fv", "kinetic", "compare"])
    def test_files_lists_every_written_file_once_in_write_order(self, tmp_path, monkeypatch, solver):
        if solver == "kinetic":
            s = scenario_from_dict({**KINETIC_CONFIG, "grid": {"xmin": -2.0, "xmax": 2.0, "dx": 1e-2}})
        else:
            s = preset("example1", solver=solver, dx=1e-2, T=0.05)
        written = []

        def recording(writer):
            def write(path, *args):
                written.append(Path(path).name)
                writer(path, *args)

            return write

        # every file writer that a run can reach, in the module that calls it
        for module, name in (
            (scenarios_mod, "write_csv"), (scenarios_mod, "write_grid_csv"),
            (scenarios_mod, "_write_json"), (kinetic_mod, "write_csv"),
        ):
            monkeypatch.setattr(module, name, recording(getattr(module, name)))
        report = run_scenario(s, out_root=str(tmp_path))
        out = tmp_path / s.name
        assert report.files == written
        assert report.files[-2:] == ["report.json", "scenario.json"]
        assert len(set(report.files)) == len(report.files)
        assert sorted(report.files) == sorted(p.name for p in out.iterdir())
        assert json.loads((out / "report.json").read_text())["files"] == report.files


class TestMatchEvents:
    """compare's pairing rule on the kinds and times (rounded) of
    ``aggrekin preset example4 --solver compare --dx 1e-3``."""

    PARTICLES = [
        ("glue", 0.0457), ("merge_same_species", 1.0368), ("cross", 1.0368), ("glue", 1.6824),
        ("merge_same_species", 2.774), ("glue", 2.774), ("final_collapse", 2.774),
    ]
    FV = [
        ("contact", 0.05), ("separate", 0.074), ("contact", 0.9113), ("merge_same_species", 1.0293),
        ("separate", 1.0293), ("contact", 1.0362), ("separate", 1.0645), ("contact", 1.6777),
        ("merge_same_species", 2.6809),
    ]

    def test_each_particle_event_pairs_with_the_next_fv_event_of_its_class(self):
        def events(pairs):
            return [{"kind": kind, "time": t} for kind, t in pairs]

        # the FV contact at 0.9113, passed over on the way to the merge at
        # 1.0293, stays unpaired rather than taking the cross at 1.0368
        matches = scenarios_mod._match_events(events(self.PARTICLES), events(self.FV))
        assert [(m["kind"], m["particle_kind"], m["t_particles"], m["t_fv"]) for m in matches] == [
            ("contact", "glue", 0.0457, 0.05),
            ("merge", "merge_same_species", 1.0368, 1.0293),
            ("contact", "cross", 1.0368, 1.0362),
            ("contact", "glue", 1.6824, 1.6777),
            ("merge", "merge_same_species", 2.774, 2.6809),
        ]
        assert [m["dt"] for m in matches] == [abs(m["t_particles"] - m["t_fv"]) for m in matches]


class TestCrossValidation:
    def test_fv_peaks_track_particle_positions_before_collision(self):
        from aggrekin.fv import run as fv_run, species_peaks
        from aggrekin.particles import run as particle_run

        kernel = make_kernel({"kind": "exponential"})
        s = preset("example1", dx=1e-3, T=0.8)
        st0 = initial_grid_state(s)
        cs0 = initial_cluster_set(s)
        times = (0.3, 0.6, 0.8)
        fres = fv_run(st0, kernel, s.params, 0.8, snapshot_times=times, track_peaks=False)
        pres = particle_run(cs0, kernel, s.params, 0.8, snapshot_times=times)
        for (t_fv, state), (t_p, snap) in zip(fres.snapshots, pres.snapshots):
            fv_pos = sorted(c for pk in species_peaks(state) for c, _ in pk)
            part_pos = sorted(c.position for c in snap.clusters)
            assert len(fv_pos) == len(part_pos)
            for a, b in zip(fv_pos, part_pos):
                assert abs(a - b) <= 3 * st0.dx


class TestCli:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "aggrekin.cli", *args],
            capture_output=True,
            text=True,
        )

    def test_preset_command(self, tmp_path):
        proc = self.run_cli(
            "preset", "example1", "--solver", "particles", "--out", str(tmp_path)
        )
        assert proc.returncode == 0, proc.stderr
        assert "synchronise" in proc.stdout
        assert (tmp_path / "example1" / "events.json").exists()

    def test_run_command_and_report(self, tmp_path):
        cfg = quick_particle_config(tmp_path, "cli_run")
        proc = self.run_cli("run", str(cfg))
        assert proc.returncode == 0, proc.stderr
        run_dir = tmp_path / "cli_run"
        proc2 = self.run_cli("report", str(run_dir))
        assert proc2.returncode == 0, proc2.stderr
        assert "sync analysis" in proc2.stdout

    def test_report_of_compare_run_prints_the_sync_table(self, tmp_path):
        s = preset("example1", solver="compare", T=1.0)
        s.output_dir = str(tmp_path / "cmp")
        report = run_scenario(s)
        proc = self.run_cli("report", s.output_dir)
        assert proc.returncode == 0, proc.stderr
        assert "synchronise" in proc.stdout
        assert proc.stdout == report_sync_analysis(report) + "\n"

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda d: d["events"][0].pop("time"), "report.events[0].time: missing required key"),
            (lambda d: d.update(events=5), "report.events: expected a list of events, got 5"),
            (lambda d: d.update(events=[1]), "report.events[0]: expected a JSON object, got 1"),
            (lambda d: d.update(mass_unit="m0"), "report.mass_unit: expected a number, got 'm0'"),
        ],
        ids=["event-without-time", "events-a-number", "event-a-number", "mass-unit-a-string"],
    )
    def test_malformed_report_is_a_json_error_naming_the_path(
        self, tmp_path, capsys, change, message
    ):
        s = preset("example3", solver="particles")
        s.output_dir = str(tmp_path)
        run_scenario(s)
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["events"][0]["sync_lhs"] is not None
        change(report)
        (tmp_path / "report.json").write_text(json.dumps(report))
        assert cli_main(["report", str(tmp_path)]) == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload == {"error": "ScenarioError", "message": message}

    def test_report_with_missing_keys_is_a_json_error(self, tmp_path):
        (tmp_path / "report.json").write_text(json.dumps({"solver": "particles", "events": []}))
        proc = self.run_cli("report", str(tmp_path))
        assert proc.returncode == 1
        payload = json.loads(proc.stderr.strip().splitlines()[-1])
        assert payload["error"] == "ScenarioError"
        assert "scenario" in payload["message"]

    def test_run_solver_choices_are_the_scenario_solvers(self):
        parser = _build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        solver = next(a for a in commands.choices["run"]._actions if a.dest == "solver")
        assert list(solver.choices) == list(SOLVERS)

    def test_preset_does_not_offer_kinetic(self, capsys):
        # every preset has chi1 = 10, which no kinetic run accepts
        with pytest.raises(SystemExit) as exc:
            cli_main(["preset", "example1", "--solver", "kinetic"])
        assert exc.value.code == 2
        assert "invalid choice: 'kinetic'" in capsys.readouterr().err

    def test_failure_emits_json_error(self, tmp_path):
        missing = tmp_path / "nope.json"
        proc = self.run_cli("run", str(missing))
        assert proc.returncode == 1
        payload = json.loads(proc.stderr.strip().splitlines()[-1])
        assert payload["error"] == "ScenarioError"

    def test_help_prints_schema(self):
        proc = self.run_cli("--help")
        assert proc.returncode == 0
        assert "Scenario JSON schema" in proc.stdout

    def test_output_root_env_override(self, tmp_path, monkeypatch):
        from aggrekin.scenarios import resolve_output_dir

        monkeypatch.setenv("AGGREKIN_OUTPUT_ROOT", str(tmp_path / "envroot"))
        s = preset("example1")
        out = resolve_output_dir(s)
        assert out == tmp_path / "envroot" / "example1"
        assert out.is_dir()

    def test_limit_command(self, tmp_path):
        cfg = {
            "name": "lim",
            "params": {"chi1": 0.45, "chi2": 0.3},
            "initial": {
                "species1": {"bumps": [[1.0, -0.4]]},
                "species2": {"bumps": [[1.0, 0.4]]},
            },
            "bump_width": 200.0,
            "solver": "kinetic",
            "grid": {"xmin": -2.0, "xmax": 2.0, "dx": 4e-3},
            "T": 0.2,
            "eps_list": [0.5, 0.1],
            "output_dir": str(tmp_path / "lim"),
        }
        path = tmp_path / "lim.json"
        path.write_text(json.dumps(cfg))
        proc = self.run_cli("limit", str(path))
        assert proc.returncode == 0, proc.stderr
        table = (tmp_path / "lim" / "limit.csv").read_text().splitlines()
        assert table[0] == "epsilon,w2_species1,w2_species2"
        assert len(table) == 3

    def test_limit_command_names_params_for_an_inadmissible_chi(self, tmp_path, capsys):
        path = tmp_path / "lim.json"
        cfg = {**KINETIC_CONFIG, "params": {"chi1": 10.0, "chi2": 0.3}, "eps_list": [0.5, 0.1]}
        path.write_text(json.dumps(cfg))
        assert cli_main(["limit", str(path), "--out", str(tmp_path / "out")]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"] == "ScenarioError"
        assert payload["message"].startswith("params:")
        # the run command refuses the same document with the same error
        assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        assert json.loads(capsys.readouterr().err.strip().splitlines()[-1]) == payload

    def test_limit_command_reads_the_cfl_safety(self, tmp_path):
        cfg = {**KINETIC_CONFIG, "eps_list": [0.1], "cfl_safety": 0.01}
        path = tmp_path / "lim.json"
        path.write_text(json.dumps(cfg))
        s = load_scenario(path)
        st0 = initial_grid_state(s)
        kernel = make_kernel(s.kernel_spec)
        # the safety, not the cap dt <= dx, sets the FV reference step
        assert cfl_dt(st0.dx, kernel, s.params, 0.01, st0.total_masses()) < st0.dx
        assert cli_main(["limit", str(path), "--out", str(tmp_path)]) == 0
        rows = limit_experiment(st0, s.params, [0.1], s.T, kernel, safety=0.01)
        write_limit_csv(tmp_path / "expected.csv", rows)
        got = (tmp_path / "kin" / "limit.csv").read_bytes()
        assert got == (tmp_path / "expected.csv").read_bytes()


KINETIC_CONFIG = {
    "name": "kin",
    "params": {"chi1": 0.45, "chi2": 0.3},
    "initial": {
        "species1": {"bumps": [[1.0, -0.4]]},
        "species2": {"bumps": [[1.0, 0.4]]},
    },
    "bump_width": 200.0,
    "solver": "kinetic",
    "grid": {"xmin": -2.0, "xmax": 2.0, "dx": 4e-3},
    "T": 0.2,
    "epsilon": 0.1,
}


class TestWronglyTypedValues:
    @pytest.mark.parametrize(
        "path, value, key",
        [
            (("epsilon",), [0.1], "epsilon"),
            (("params", "chi1"), [0.4], "params.chi1"),
            (("params", "psi2"), "fast", "params.psi2"),
            (("T",), "x", "T"),
            (("grid", "dx"), None, "grid.dx"),
            (("snapshot_times",), [0.0, "a"], "snapshot_times"),
            (("snapshot_times",), 0.1, "snapshot_times"),
            (("eps_list",), [0.5, [0.1]], "eps_list"),
            (("eps_list",), 0.5, "eps_list"),
            (("cfl_safety",), {}, "cfl_safety"),
            pytest.param(("bump_width",), 10**400, "bump_width", id="int-too-large-for-float"),
        ],
    )
    def test_key_is_named(self, path, value, key):
        data = json.loads(json.dumps(KINETIC_CONFIG))
        node = data
        for part in path[:-1]:
            node = node[part]
        node[path[-1]] = value
        with pytest.raises(ScenarioError, match=key):
            scenario_from_dict(data)

    @pytest.mark.parametrize(
        "path, value, key",
        [
            (("initial", "species1", "bumps"), [["a", 0.1]], "initial.species1.bumps[0]"),
            (("initial", "species2", "bumps"), [[1.0, 0.4], [0.5]], "initial.species2.bumps[1]"),
            (("initial", "species1", "bumps"), [3], "initial.species1.bumps[0]"),
            (("initial", "species1", "bumps"), 3, "initial.species1.bumps"),
            (("initial", "species1"), "x", "initial.species1"),
            (("initial",), [1], "initial"),
            (("params",), 5, "params"),
            (("grid",), [-2.0, 2.0, 4e-3], "grid"),
            (("kernel",), "exponential", "kernel"),
        ],
    )
    def test_wrongly_typed_entry_is_named(self, path, value, key):
        data = json.loads(json.dumps(KINETIC_CONFIG))
        node = data
        for part in path[:-1]:
            node = node[part]
        node[path[-1]] = value
        with pytest.raises(ScenarioError) as exc:
            scenario_from_dict(data)
        assert str(exc.value).startswith(key + ":")

    @pytest.mark.parametrize(
        "path, value, key",
        [
            pytest.param(("T",), "2.5", "T", id="T-string"),
            pytest.param(("T",), True, "T", id="T-bool"),
            pytest.param(("params", "chi1"), "10", "params.chi1", id="chi1-string"),
            pytest.param(
                ("initial", "species1", "bumps"), [["4", -0.4]], "initial.species1.bumps[0]",
                id="amplitude-string",
            ),
            pytest.param(("kernel",), {"kind": "regularized", "n": "4"}, "kernel.n", id="kernel-n-string"),
            pytest.param(("grid", "dx"), False, "grid.dx", id="dx-bool"),
        ],
    )
    def test_strings_and_booleans_are_not_numbers(self, path, value, key):
        data = json.loads(json.dumps(KINETIC_CONFIG))
        node = data
        for part in path[:-1]:
            node = node[part]
        node[path[-1]] = value
        with pytest.raises(ScenarioError) as exc:
            scenario_from_dict(data)
        assert str(exc.value).startswith(key + ": expected a number")

    def test_numpy_reals_are_numbers(self):
        data = json.loads(json.dumps(KINETIC_CONFIG))
        plain = scenario_from_dict(data)
        data["T"] = np.float64(data["T"])
        data["initial"]["species1"]["bumps"] = [[np.int64(1), np.float64(-0.4)]]
        assert scenario_from_dict(data) == plain

    @pytest.mark.parametrize(
        "path, key",
        [
            (("theta",), "theta"),
            (("params", "theta"), "params.theta"),
            (("grid", "nx"), "grid.nx"),
            (("initial", "species3"), "initial.species3"),
            (("initial", "species1", "width"), "initial.species1.width"),
            (("initial", "species2", "bump"), "initial.species2.bump"),
        ],
    )
    def test_unknown_key_of_every_object_is_named(self, path, key):
        data = json.loads(json.dumps(KINETIC_CONFIG))
        node = data
        for part in path[:-1]:
            node = node[part]
        node[path[-1]] = 1.0
        with pytest.raises(ScenarioError) as exc:
            scenario_from_dict(data)
        assert str(exc.value) == f"{key}: unknown key"

    @pytest.mark.parametrize(
        "path, value, key",
        [(("params", "theta"), 2.0, "params.theta"), (("T",), "0.2", "T")],
    )
    def test_cli_refuses_a_typo_and_a_string(self, tmp_path, capsys, path, value, key):
        data = json.loads(json.dumps(KINETIC_CONFIG))
        node = data
        for part in path[:-1]:
            node = node[part]
        node[path[-1]] = value
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(data))
        assert cli_main(["run", str(config), "--out", str(tmp_path / "out")]) == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "ScenarioError"
        assert payload["message"].startswith(key + ":")
        assert not (tmp_path / "out").exists()

    def test_cli_names_a_wrongly_typed_bump(self, tmp_path, capsys):
        data = json.loads(json.dumps(KINETIC_CONFIG))
        data["initial"]["species1"]["bumps"] = [["a", 0.1]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "ScenarioError"
        assert payload["message"].startswith("initial.species1.bumps[0]:")

    @pytest.mark.parametrize("n", ["x", [3], float("inf"), 2.7, True, False, 0])
    def test_kernel_n_is_named(self, n):
        with pytest.raises(ScenarioError, match="kernel.n"):
            make_kernel({"kind": "regularized", "n": n})

    @pytest.mark.parametrize(
        "key, value",
        [
            ("epsilon", [0.1]), ("T", "x"), ("params", {"chi1": [0.4], "chi2": 0.3}), ("output_dir", 5),
            ("name", ["a", 1]), ("name", ""),
            # the run directory is <root>/<name>: ".." would write the run beside the root
            ("name", ".."), ("name", "."), ("name", "a/b"), ("name", "a\\b"),
        ],
    )
    def test_cli_reports_the_key(self, tmp_path, capsys, key, value):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**KINETIC_CONFIG, key: value}))
        assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "ScenarioError"
        assert payload["message"].startswith(key if key != "params" else "params.chi1")

    # positive and finite, but the step, the step count, the particle
    # iteration budget or the kinetic relaxation rate formed from them is not
    @pytest.mark.parametrize(
        "document, name",
        [
            ({"preset": "example1", "solver": "fv", "cfl_safety": 5e-324}, "safety 5e-324"),
            ({"preset": "example1", "solver": "fv", "cfl_safety": 1e-320}, "(T - t0) / dt"),
            ({"preset": "example1", "solver": "particles", "dt_max": 1e-310}, "dt_max must be positive"),
            ({**KINETIC_CONFIG, "epsilon": 5e-324}, "epsilon = 5e-324"),
        ],
        ids=["cfl_safety-step-0", "cfl_safety-steps-inf", "dt_max", "epsilon"],
    )
    def test_cli_refuses_a_tiny_value_whose_derived_quantity_overflows(
        self, tmp_path, capsys, document, name
    ):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(document))
        assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "ValueError"
        assert name in payload["message"]

    # finite bounds and a positive step, but (xmax - xmin) / dx overflows:
    # refused before any cell is sampled
    @pytest.mark.parametrize(
        "grid",
        [{"xmin": -1e308, "xmax": 1e308, "dx": 1.0}, {"xmin": -2.0, "xmax": 2.0, "dx": 1e-320}],
        ids=["span", "dx"],
    )
    def test_cli_refuses_a_grid_whose_cell_count_is_not_finite(self, tmp_path, capsys, grid):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"preset": "example1", "solver": "fv", "grid": grid, "T": 0.1}))
        assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "ScenarioError"
        assert payload["message"].startswith("grid: ")
        assert "not a finite cell count" in payload["message"]


def _tree_bytes(root: Path) -> dict[str, bytes]:
    files = sorted(p for p in root.rglob("*") if p.is_file())
    return {str(p.relative_to(root)): p.read_bytes() for p in files}


class TestGridRerunsByteIdentical:
    @pytest.mark.filterwarnings("ignore::aggrekin.measures.CoarseGridWarning")
    @pytest.mark.parametrize("solver", ["fv", "kinetic"])
    def test_two_runs_write_the_same_bytes(self, tmp_path, solver):
        if solver == "fv":
            s = preset("example1", solver="fv", dx=2e-3, T=0.1)
        else:
            s = scenario_from_dict(KINETIC_CONFIG)
        for root in ("a", "b"):
            run_scenario(s, out_root=str(tmp_path / root))
        a, b = _tree_bytes(tmp_path / "a"), _tree_bytes(tmp_path / "b")
        assert len(a) >= 4 and a == b
        # wall-clock time stays out of every output file
        assert not any(b"elapsed" in content for content in a.values())
