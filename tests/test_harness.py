from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest

from amrfv import eos, harness, vtkio
from amrfv.errors import ConfigError
from amrfv.forest import REFINE, Connectivity, new_uniform
from amrfv.harness import (
    compression_rate,
    convergence_rate,
    default_config,
    init_case,
    l1_error,
    l2_error,
    load_config,
    run,
)
from amrfv.partition import partition

import oracles

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def small_smooth(**over):
    over.setdefault("t_end", 0.05)
    return default_config("smooth_advection", max_level=4, min_level=4, **over)


class TestConfig:
    def test_defaults_round_trip_all_cases(self):
        for case in harness.CASES:
            cfg = default_config(case)
            assert cfg.case == case
            assert cfg.min_level <= cfg.max_level <= cfg.b

    def test_load_shipped_configs(self):
        for path in sorted(CONFIGS.glob("*.ini")):
            cfg = load_config(path)
            assert cfg.case in harness.CASES

    def test_load_overrides(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text(
            "[case]\nname = disk_advection\nt_end = 0.25\nradius = 0.2\n"
            "[mesh]\nmax_level = 5\nmin_level = 2\n"
            "[criterion]\nkind = alpha_gradient\nxi = 1e-3\n"
            "[scheme]\norder = 1\ncfl = 0.5\n"
            "[run]\nranks = 3\noutput_dir = zzz\n"
        )
        cfg = load_config(p)
        assert cfg.t_end == 0.25
        assert cfg.case_params["radius"] == 0.2
        assert (cfg.max_level, cfg.min_level) == (5, 2)
        assert cfg.criterion == "alpha_gradient" and cfg.xi == 1e-3
        assert cfg.order == 1 and cfg.cfl == 0.5
        assert cfg.ranks == 3 and cfg.output_dir == "zzz"

    def test_bad_configs(self, tmp_path):
        with pytest.raises(ConfigError):
            default_config("unknown_case")
        with pytest.raises(ConfigError):
            default_config("smooth_advection", min_level=5, max_level=4)
        with pytest.raises(ConfigError):
            default_config("smooth_advection", adapt_every=0)
        # [scheme] and [criterion] values fail when the config is built, also
        # for a case that never adapts
        for bad, named in (
            (dict(criterion="bogus"), "bogus"),
            (dict(xi=-1.0), "xi"),
            (dict(order=3), "order"),
            (dict(cfl=1.5), "CFL"),
            (dict(splitting="godunov"), "splitting"),
        ):
            with pytest.raises(ConfigError, match=named):
                default_config("shock_tube", **bad)
        p = tmp_path / "bad.ini"
        p.write_text("[case]\nname = not_a_case\n")
        with pytest.raises(ConfigError):
            load_config(p)
        with pytest.raises(ConfigError):
            load_config(tmp_path / "missing.ini")

    @pytest.mark.parametrize(
        "body, named",
        [
            ("[mesh]\nmax_levle = 5\n", ["max_levle", "[mesh]"]),
            ("radius = 0.2\n", ["radius", "[case]"]),
            ("[run]\nthreads = on\n", ["threads", "[run]"]),
            ("[solver]\norder = 2\n", ["[solver]"]),
            ("[mesh]\nb = 5\n[mesh]\nb = 6\n", ["'mesh' already exists"]),
            ("[criterion]\nkind = bogus\n", ["bogus"]),
            ("[scheme]\norder = 3\n", ["order"]),
        ],
        ids=[
            "mesh_key",
            "case_param",
            "run_threads",
            "section",
            "duplicate_section",
            "criterion_kind",
            "scheme_order",
        ],
    )
    def test_unknown_keys_rejected(self, tmp_path, body, named):
        # radius is a disk/drop parameter that smooth_advection never reads
        p = tmp_path / "typo.ini"
        p.write_text("[case]\nname = smooth_advection\n" + body)
        with pytest.raises(ConfigError) as err:
            load_config(p)
        for word in named:
            assert word in str(err.value)

    def test_config_is_frozen(self):
        # sweep_config and criterion_obj are built once from the fields, so
        # an edited field would leave them stale; edits go through replace
        cfg = default_config("disk_advection")
        with pytest.raises(FrozenInstanceError):
            cfg.order = 1
        edited = replace(cfg, order=1, xi=1e-3)
        assert (edited.sweep_config.order, edited.criterion_obj.xi) == (1, 1e-3)
        assert (cfg.sweep_config.order, cfg.criterion_obj.xi) == (2, 5e-5)

    def test_ranks_beyond_min_level_leaves_rejected(self):
        # coarsening may reach the 4 leaves of min_level 1, which 5 or more
        # ranks cannot share; such a run would fail mid-way in partition
        for ranks in (274, 5):
            with pytest.raises(ConfigError, match="ranks"):
                default_config("drop2d", max_level=5, min_level=1, ranks=ranks)
        assert default_config("drop2d", max_level=5, min_level=1, ranks=4).ranks == 4


class TestInitCase:
    def test_smooth_values(self):
        cfg = small_smooth()
        setup = init_case(cfg)
        f, u = setup.forest, setup.field
        assert f.nleaves == 2 ** (2 * 4)
        rho = u[:, 0]
        p = eos.mixture_pressure(rho, u[:, 1] / rho, cfg.fluids)
        np.testing.assert_allclose(p, 1e5, rtol=1e-10)
        np.testing.assert_allclose(u[:, 2] / rho, 1.0, rtol=1e-12)
        np.testing.assert_allclose(u[:, 3] / rho, 1.0, rtol=1e-12)
        # profile peaks at the center, floor at lambda
        alpha = eos.solve_alpha(rho, u[:, 1] / rho, cfg.fluids)
        center = np.argmin(np.linalg.norm(f.centers - 0.5, axis=1))
        assert alpha[center] > 0.85  # nearest center sits at r ~ 0.044
        assert alpha.min() == pytest.approx(1e-7, rel=1e-4)

    def test_disk_pre_adapts_to_interface(self):
        cfg = default_config("disk_advection", max_level=6, min_level=3)
        setup = init_case(cfg)
        f = setup.forest
        assert f.nleaves > 2 ** (2 * 3)  # refined beyond the coarse mesh
        assert f.nleaves < 2 ** (2 * 6)  # but nowhere near uniform-fine
        # finest cells hug the interface r = 0.1
        fine = f.level == 6
        r = np.linalg.norm(f.centers[fine] - 0.5, axis=1)
        assert np.all(np.abs(r - 0.1) < 0.1)

    def test_drop_and_dambreak_sample(self):
        for case, dim in (("drop2d", 2), ("dambreak3d", 3)):
            cfg = default_config(case, max_level=3, min_level=2)
            setup = init_case(cfg)
            assert setup.field.shape[1] == 2 + dim
            assert np.all(setup.field[:, 0] > 0)

    def test_shock_tube_slab(self):
        cfg = default_config("shock_tube", trees=(32, 1), tree_extent=1 / 32)
        setup = init_case(cfg)
        f, u = setup.forest, setup.field
        rho = u[:, 0]
        p = eos.mixture_pressure(rho, u[:, 1] / rho, cfg.fluids)
        inside = (f.centers[:, 0] > 0.25) & (f.centers[:, 0] < 0.75)
        np.testing.assert_allclose(p[inside], 20.0, rtol=1e-12)
        np.testing.assert_allclose(p[~inside], 10.0, rtol=1e-12)

    def test_t_end_zero_initial_output_only(self, tmp_path):
        cfg = small_smooth(t_end=0.0, output_dir=str(tmp_path))
        res = run(cfg)
        assert res.steps == 0
        names = [p.name for p in res.artifacts]
        assert "smooth_advection_0000.vtk" in names
        assert "smooth_advection_final.vtk" in names


class TestNormsAndRates:
    def test_zero_error(self):
        cfg = small_smooth()
        setup = init_case(cfg)
        exact = setup.exact_alpha(setup.forest.centers, 0.0)
        assert l1_error(setup.forest, setup.field, cfg.fluids, exact) < 1e-12
        assert l2_error(setup.forest, setup.field, cfg.fluids, exact) < 1e-12

    def test_two_point_slope(self):
        assert convergence_rate([2.0, 1.0], [0.2, 0.1]) == pytest.approx(1.0)

    def test_too_few_points(self):
        with pytest.raises(ConfigError):
            convergence_rate([1.0], [0.1])

    def test_compression_rate(self):
        conn = Connectivity(2, (1, 1), (True, True))
        f = new_uniform(conn, level=3, b=3)
        assert compression_rate(f, 3) == 1.0
        f2 = new_uniform(conn, level=2, b=3)
        assert compression_rate(f2, 3) == 0.25


class TestRun:
    def test_smooth_returns_profile(self, tmp_path):
        cfg = default_config(
            "smooth_advection", max_level=5, min_level=5, output_dir=str(tmp_path)
        )
        res = run(cfg, write_outputs=False)
        assert res.t == pytest.approx(1.0)
        assert res.l1_alpha < 0.05

    def test_failure_names_the_step_and_the_leaf(self, monkeypatch):
        def nan_momentum(cfg):
            setup = init_case(cfg)
            setup.field[10, 2] = np.nan
            return setup

        monkeypatch.setattr(harness, "init_case", nan_momentum)
        with pytest.raises(ArithmeticError) as err:
            run(default_config("smooth_advection", max_level=3, min_level=3, t_end=0.05), write_outputs=False)
        assert str(err.value) == (
            "solver failed at t=0 (step 1, 64 leaves): "
            "non-finite or non-positive time step at leaf 10 (level 3, centre (0.0625, 0.4375))"
        )

    def test_rank_count_leaves_physics_unchanged(self):
        base = None
        for P in (1, 4):
            cfg = default_config(
                "disk_advection",
                max_level=5,
                min_level=3,
                t_end=0.1,
                ranks=P,
            )
            res = run(cfg, write_outputs=False)
            if base is None:
                base = res
            else:
                assert res.forest.nleaves == base.forest.nleaves
                np.testing.assert_array_equal(res.field, base.field)

    def test_deterministic_artifacts(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            cfg = default_config(
                "disk_advection",
                max_level=5,
                min_level=3,
                t_end=0.05,
                ranks=2,
                output_dir=str(out),
            )
            res = run(cfg)
            from amrfv.vtkio import write_csv_cut

            write_csv_cut(
                res.forest, res.field, cfg.fluids, [0.0, 0.0], [1.0, 1.0], out / "cut.csv"
            )
        for name in ("disk_advection_final.vtk", "disk_advection_partition.csv", "cut.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_profile_coverage(self, tmp_path):
        cfg = default_config("disk_advection", max_level=5, min_level=3, t_end=0.1)
        res = run(cfg, write_outputs=False)
        assert res.profile.wall > 0
        assert 0.9 * res.profile.wall <= res.profile.covered <= res.profile.wall
        csv = res.profile.csv()
        assert csv.splitlines()[0] == "phase,seconds,percent"
        assert len(csv.splitlines()) == len(harness.PHASES) + 1
        # the face-list build has its own phase, ahead of the ghost layers
        assert res.profile.seconds["faces"] > 0
        # the wall spans the first partition and both dumps, so a run without
        # a step is covered as well and its phases never exceed the wall
        res = run(replace(cfg, t_end=0.0, output_dir=str(tmp_path)))
        assert res.steps == 0 and res.profile.seconds["io"] > 0
        assert 0.9 * res.profile.wall <= res.profile.covered <= res.profile.wall

    def test_drop2d_gravity_smoke(self, tmp_path):
        # a few steps of the walled gravity case: liquid must gain downward
        # momentum, mass must be conserved, mesh must stay balanced
        cfg = default_config(
            "drop2d", max_level=4, min_level=2, t_end=2e-5, output_dir=str(tmp_path)
        )
        res = run(cfg)
        f, u = res.forest, res.field
        assert res.steps > 0
        assert f.balance()[0].nleaves == f.nleaves
        liquid = u[:, 1] / u[:, 0] < 0.5  # mass fraction of gas below half
        assert np.sum(u[liquid, 3]) < 0.0  # net downward momentum
        setup0 = init_case(cfg)
        m0 = np.sum(setup0.forest.volumes * setup0.field[:, 0])
        m1 = np.sum(f.volumes * u[:, 0])
        assert abs(m1 - m0) / m0 < 1e-11

    def test_dambreak3d_smoke(self):
        cfg = default_config("dambreak3d", max_level=3, min_level=2, t_end=5e-6)
        res = run(cfg, write_outputs=False)
        assert res.steps > 0
        assert res.forest.dim == 3
        assert res.field.shape[1] == 5

    def test_double_rarefaction_drops_midline_density(self):
        cfg = default_config("double_rarefaction", trees=(64, 1), tree_extent=1 / 64)
        res = run(cfg, write_outputs=False)
        f, u = res.forest, res.field
        mid = np.abs(f.centers[:, 0] - 0.5) < 0.1
        outer = f.centers[:, 0] < 0.2
        assert u[mid, 0].mean() < u[outer, 0].mean()

    def test_adaptation_tracks_moving_disk(self):
        cfg = default_config("disk_advection", max_level=5, min_level=3, t_end=0.25)
        res = run(cfg, write_outputs=False)
        f = res.forest
        fine = f.level == 5
        # the refined band should follow the advected center (0.5 + t)
        r = np.linalg.norm(f.centers[fine] - (0.5 + res.t) % 1.0, axis=1)
        assert np.median(r) < 0.25


def _refined(f, picks):
    """``f`` with the leaves ``picks`` refined, then balanced."""
    marks = np.zeros(f.nleaves, dtype=np.int8)
    marks[list(picks)] = REFINE
    return f.refine(marks)[0].balance()[0]


def _vtk_case(name):
    """(forest, state, fluids, ranks) of one byte-level writer case."""
    fp = default_config("drop2d").fluids
    rng = np.random.default_rng(7)
    if name == "voxel_multi_tree":
        f = _refined(new_uniform(Connectivity(3, (2, 1, 2), (True, False, False), 0.37), level=1, b=4), [0, 9, 30])
        ranks = None
    elif name == "walled_two_tree_ranks":
        f = _refined(new_uniform(Connectivity(2, (2, 1), (False, False)), level=2, b=5), [5, 6, 17, 30])
        ranks = partition(f, 3).owner_of(np.arange(f.nleaves))
    elif name == "exponent_form":
        # the leaf at the origin refined down to b = 31: corners of 2**-31 and
        # its small multiples, alpha at the 1e-7 floor of the initial data
        f = new_uniform(Connectivity(2, (1, 1), (True, True)), level=0, b=31)
        for _ in range(31):
            marks = np.zeros(f.nleaves, dtype=np.int8)
            marks[0] = REFINE
            f = f.refine(marks)[0]
        ranks = None
    elif name == "signed_velocities":
        f = new_uniform(Connectivity(2, (1, 1), (True, True)), level=2, b=3)
        ranks = np.arange(f.nleaves) % 2
    else:
        f = new_uniform(Connectivity(2, (1, 1), (True, True)), level=0, b=0)
        ranks = None
    n = f.nleaves
    alpha = np.where(np.arange(n) % 2 == 0, 1e-7, rng.uniform(0.1, 0.9, n))
    vel = rng.normal(size=(n, f.dim)) * 10.0 ** rng.integers(-9, 3, size=(n, 1))
    if name == "signed_velocities":
        vel[:, 0] = np.where(np.arange(n) % 3 == 0, -0.0, np.where(np.arange(n) % 3 == 1, 0.0, -vel[:, 0] ** 2))
        vel[:, 1] = -0.0
    u = eos.state_from_pressure_alpha(1e5 * (1.0 + rng.random(n)), alpha, vel, fp)
    return f, u, fp, ranks


VTK_CASES = ["voxel_multi_tree", "walled_two_tree_ranks", "exponent_form", "signed_velocities", "single_leaf"]


class TestVtk:
    @pytest.mark.parametrize("name", VTK_CASES)
    def test_bytes_match_line_by_line_oracle(self, tmp_path, name):
        f, u, fp, ranks = _vtk_case(name)
        path = tmp_path / "case.vtk"
        vtkio.write_vtk(f, u, fp, path, ranks=ranks)
        assert path.read_bytes() == oracles.vtk_text(f, u, fp, ranks).encode()

    def test_cases_reach_the_formats_they_name(self):
        f, u, fp, _ = _vtk_case("exponent_form")
        text = oracles.vtk_text(f, u, fp)
        assert "4.656612873077393e-10 0.0 0.0\n" in text and "\n1e-07\n" in text
        f, u, fp, _ = _vtk_case("signed_velocities")
        text = oracles.vtk_text(f, u, fp)
        vectors = text[text.index("VECTORS"):].splitlines()[1:]
        assert {"-0.0 -0.0 0.0", "0.0 -0.0 0.0"} <= set(vectors)
        assert any(v.startswith("-") and not v.startswith("-0.0") for v in vectors)

    @pytest.mark.parametrize("direction", [(1.0, 0.3), (0.0, 1.0)], ids=["oblique", "axis"])
    def test_csv_bytes_match_line_by_line_oracle(self, tmp_path, direction):
        f, u, fp, _ = _vtk_case("walled_two_tree_ranks")
        path = tmp_path / "cut.csv"
        vtkio.write_csv_cut(f, u, fp, [0.6, 0.2], direction, path)
        text = oracles.csv_text(f, u, fp, [0.6, 0.2], direction)
        assert text.count("\n") > 4
        assert path.read_bytes() == text.encode()

    def test_single_leaf_counts(self, tmp_path):
        conn = Connectivity(2, (1, 1), (True, True))
        f = new_uniform(conn, level=0, b=0)
        fp = default_config("smooth_advection").fluids
        u = eos.state_from_pressure_alpha(1e5, np.array([0.5]), np.array([1.0, 0.0]), fp)
        path = tmp_path / "one.vtk"
        vtkio.write_vtk(f, u, fp, path)
        text = path.read_text()
        assert "POINTS 4 double" in text
        assert "CELLS 1 5" in text
        assert "CELL_TYPES 1" in text
        assert "SCALARS rho double 1" in text

    def test_cell_count_matches_leaves(self, tmp_path):
        cfg = default_config("disk_advection", max_level=4, min_level=2)
        setup = init_case(cfg)
        path = tmp_path / "mesh.vtk"
        vtkio.write_vtk(setup.forest, setup.field, cfg.fluids, path)
        text = path.read_text()
        assert f"CELLS {setup.forest.nleaves} " in text
        assert f"POINTS {4 * setup.forest.nleaves} double" in text

    def test_golden_file_round_trip(self, tmp_path):
        conn = Connectivity(2, (1, 1), (True, True))
        f = new_uniform(conn, level=1, b=1)
        fp = default_config("shock_tube").fluids
        u = eos.state_from_pressure_alpha(
            10.0, np.array([0.2, 0.4, 0.6, 0.8]), np.array([1.0, -1.0]), fp
        )
        path = tmp_path / "golden.vtk"
        vtkio.write_vtk(f, u, fp, path)
        golden = Path(__file__).parent / "data" / "golden_quad.vtk"
        assert path.read_text() == golden.read_text()
        # parse back cell data and compare against the source field
        lines = path.read_text().splitlines()
        i = lines.index("SCALARS rho double 1")
        rho = [float(v) for v in lines[i + 2 : i + 6]]
        np.testing.assert_allclose(rho, u[:, 0], rtol=1e-15)

    def test_csv_cut_diagonal(self, tmp_path):
        cfg = default_config("disk_advection", max_level=4, min_level=4)
        setup = init_case(cfg)
        path = tmp_path / "cut.csv"
        vtkio.write_csv_cut(setup.forest, setup.field, cfg.fluids, [0, 0], [1, 1], path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "s,x,y,rho,Y,alpha,p,ux,uy,level"
        # the x=y diagonal of a uniform 16x16 mesh crosses 16 cells
        assert len(lines) == 1 + 16
        s_vals = [float(r.split(",")[0]) for r in lines[1:]]
        assert s_vals == sorted(s_vals)
        # alpha along the diagonal peaks inside the disk
        a_vals = [float(r.split(",")[5]) for r in lines[1:]]
        assert max(a_vals) > 0.9 and min(a_vals) < 1e-6


class TestStudies:
    def test_bench_partition_monotone_frontier(self):
        cfg = default_config("disk_advection", max_level=5, min_level=3)
        out = harness.bench_partition_study(cfg, [1, 2, 4, 8])
        ratios = [out["ranks"][P]["max_ratio"] for P in (1, 2, 4, 8)]
        assert ratios[0] == 0.0
        assert all(b >= a - 1e-12 for a, b in zip(ratios, ratios[1:]))
        assert all(out["ranks"][P]["load_spread"] <= 1 for P in (1, 2, 4, 8))
