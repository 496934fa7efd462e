import configparser
import time
from contextlib import contextmanager
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest

from amrfv import eos, harness, solver, vtkio
from amrfv.errors import ConfigError, EosError
from amrfv.forest import REFINE, Connectivity, Forest, new_uniform
from amrfv.harness import (
    _error_norms,
    compression_rate,
    convergence_rate,
    default_config,
    init_case,
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
            assert 0 <= cfg.min_level <= cfg.max_level

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
        # a value that is not finite, which fails no ``x <= 0`` check if NaN, and
        # a negative output_every, which would dump after every step
        nan, inf = float("nan"), float("inf")
        fluids = default_config("shock_tube").fluids
        for bad, named in (
            (dict(t_end=inf), "t_end"),
            (dict(t_end=nan), "t_end"),
            (dict(output_every=-1), "output_every"),
            (dict(xi=nan), "xi"),
            (dict(xi=inf), "xi"),
            (dict(tree_extent=nan), "tree_extent"),
            (dict(tree_extent=inf), "tree_extent"),
            (dict(gravity=nan), "gravity"),
            (dict(weights=(1.0, nan, 1.0)), "weights"),
            (dict(criterion="mixed", weights=(1.0, inf, 1.0)), "weights"),
        ):
            with pytest.raises(ConfigError, match=named):
                default_config("shock_tube", **bad)
        for name in ("p1_0", "rho1_0", "c1", "p2_0", "rho2_0", "c2", "theta"):
            for value in (nan, inf):
                with pytest.raises(ConfigError, match=name):
                    replace(fluids, **{name: value})
        # a [case] value that is not a finite real number: NaN and infinities
        # fail no comparison the samplers make, so a NaN radius drew no disk
        for key, value in (("radius", nan), ("x0", inf), ("p", nan), ("uy", -inf), ("radius", "abc"), ("ux", True)):
            with pytest.raises(ConfigError, match=rf"\[case\] {key} "):
                default_config("disk_advection", case_params={key: value})
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
            ("[mesh]\nb = 5\n", ["'b'", "[mesh]"]),
            ("radius = 0.2\n", ["radius", "[case]"]),
            ("[run]\nthreads = on\n", ["threads", "[run]"]),
            ("[solver]\norder = 2\n", ["[solver]"]),
            ("[mesh]\nb = 5\n[mesh]\nb = 6\n", ["'mesh' already exists"]),
            ("[criterion]\nkind = bogus\n", ["bogus"]),
            ("[scheme]\norder = 3\n", ["order"]),
        ],
        ids=[
            "mesh_key",
            "mesh_b",
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

    @pytest.mark.parametrize(
        "body, named",
        [
            ("t_end = inf\n", "t_end"),
            ("t_end = nan\n", "t_end"),
            ("[run]\noutput_every = -1\n", "output_every"),
            ("[criterion]\nxi = nan\n", "xi"),
            ("[criterion]\nkind = mixed\nweights = 1 nan 1\n", "weights"),
            ("[domain]\ntree_extent = nan\n", "tree_extent"),
            ("[scheme]\ngravity = nan\n", "gravity"),
            ("[fluids]\ntheta = nan\n", "theta"),
            ("[fluids]\nc2 = inf\n", "c2"),
            ("x0 = nan\n", r"\[case\] x0 "),
            ("p = inf\n", r"\[case\] p "),
            ("lambda = -inf\n", r"\[case\] lambda "),
            ("uy = nan\n", r"\[case\] uy "),
        ],
        ids=[
            "t_end_inf", "t_end_nan", "output_every", "xi", "weights", "tree_extent", "gravity", "theta", "c2",
            "case_x0_nan", "case_p_inf", "case_lambda_neg_inf", "case_uy_nan",
        ],
    )
    def test_bad_values_rejected(self, tmp_path, body, named):
        p = tmp_path / "bad.ini"
        p.write_text("[case]\nname = smooth_advection\n" + body)
        with pytest.raises(ConfigError, match=named):
            load_config(p)

    @pytest.mark.parametrize("sep", [",", ", ", " "])
    def test_periodic_tokens(self, tmp_path, sep):
        # every token configparser reads as a boolean, as written and in mixed case
        states = configparser.ConfigParser.BOOLEAN_STATES
        tokens = [t for s in states for t in (s, s.upper(), "".join(c.upper() if i % 2 else c for i, c in enumerate(s)))]
        p = tmp_path / "periodic.ini"
        for first, second in zip(tokens, tokens[1:] + tokens[:1]):
            p.write_text(f"[case]\nname = smooth_advection\n[domain]\nperiodic = {first}{sep}{second}\n")
            assert load_config(p).periodic == (states[first.lower()], states[second.lower()])
        p.write_text(f"[case]\nname = smooth_advection\n[domain]\nperiodic = yes{sep}maybe\n")
        with pytest.raises(ConfigError, match="'maybe'"):
            load_config(p)

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

    def test_mixed_weights_are_three(self, tmp_path):
        # two weights used to build and then fail to unpack mid-run
        with pytest.raises(ConfigError, match="weights"):
            default_config("disk_advection", criterion="mixed", weights=(1.0, 1.0))
        p = tmp_path / "weights.ini"
        p.write_text("[case]\nname = disk_advection\n[criterion]\nkind = mixed\nweights = 1 1\n")
        with pytest.raises(ConfigError, match="weights"):
            load_config(p)
        p.write_text("[case]\nname = disk_advection\n[criterion]\nkind = mixed\nweights = 1 0 2\n")
        assert load_config(p).criterion_obj.weights == (1.0, 0.0, 2.0)

    def test_domain_checked_when_built(self):
        # the domain is checked before the ranks check counts its trees, and
        # the config keeps the connectivity it checked
        for bad, named in (
            (dict(trees=(0, 1)), "tree_dims must be positive"),
            (dict(trees=(-2, 1)), "tree_dims must be positive"),
            (dict(tree_extent=-1.0), "tree_extent must be positive"),
        ):
            with pytest.raises(ConfigError, match=named):
                default_config("drop2d", **bad)
        cfg = default_config("drop2d", trees=(2, 1), tree_extent=0.5)
        assert cfg.connectivity is cfg.connectivity
        assert cfg.connectivity == Connectivity(2, (2, 1), (False, False), 0.5)


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

    @pytest.mark.parametrize("dim", [2, 3])
    def test_samplers_match_the_oracles_bit_for_bit(self, dim):
        rng = np.random.default_rng(dim)
        x0 = rng.uniform(0.3, 0.7, dim)
        p = {"lambda": 1e-7, "radius": 0.1}
        d = rng.normal(size=(400, dim))
        d /= np.linalg.norm(d, axis=1)[:, None]
        x = np.concatenate([rng.uniform(0.0, 1.0, (2000, dim)), x0 + 0.3 * d, x0 + 0.1 * d, x0[None]])
        r = np.linalg.norm(x - x0, axis=1)
        # many points lie exactly on the dome's rim and on the disk's
        assert np.count_nonzero(r == 0.3) > 100 and np.count_nonzero(r == 0.1) > 100
        assert harness._radius(x, x0).view(np.int64).tolist() == r.view(np.int64).tolist()
        for new, old in ((harness._smooth_alpha, oracles.smooth_alpha), (harness._disk_alpha, oracles.disk_alpha)):
            np.testing.assert_array_equal(new(x, p, x0).view(np.int64), old(x, p, x0).view(np.int64))

    @pytest.mark.parametrize("param, leaf", [("p_out", "leaf 0 (level 0, centre (0.0078125, 0.0078125))"),
                                             ("p_in", "leaf 16 (level 0, centre (0.257812, 0.0078125))")])
    def test_vacuum_initial_state_names_the_leaf(self, param, leaf):
        # both fluids of the shock tube reach vacuum at p = 6
        cfg = default_config("shock_tube", case_params={param: 5.0})
        with pytest.raises(EosError) as err:
            init_case(cfg)
        assert str(err.value) == f"initial state: pressure 5.0 below vacuum for fluid 1 and fluid 2 at {leaf}"
        assert err.value.index == int(leaf.split()[1])

    def test_t_end_zero_initial_output_only(self, tmp_path):
        cfg = small_smooth(t_end=0.0, output_dir=str(tmp_path))
        res = run(cfg)
        assert res.steps == 0
        names = [p.name for p in res.artifacts]
        assert "smooth_advection_0000.vtk" in names
        assert "smooth_advection_final.vtk" in names


class TestProfile:
    def test_books_a_section_that_raises(self):
        prof = harness.Profile()
        with pytest.raises(ZeroDivisionError):
            with prof.walltime():
                with prof.section("flux"):
                    time.sleep(0.002)
                    1 / 0
        assert prof.seconds["flux"] >= 0.002 and prof.wall >= prof.seconds["flux"]
        assert prof.covered == prof.seconds["flux"]

    def test_sections_nest_and_add_up(self):
        prof = harness.Profile()
        with prof.section("io"):
            with prof.section("io"):
                time.sleep(0.001)
        first = prof.seconds["io"]
        with prof.section("io"):
            pass
        assert prof.seconds["io"] >= first >= 0.002


class TestWrapShift:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_gives_the_bits_of_remainder(self, dim):
        rng = np.random.default_rng(dim)
        ext = np.array([1.0, 2.0, 0.75][:dim])
        centers = rng.random((500, dim)) * ext
        centers[7], centers[9] = 0.25 * ext, 0.5 * ext  # dyadic: the shifts below land on -ext and on ext exactly
        shifts = [
            0.3 * ext,  # forward, below one extent
            -0.7 * ext,  # backward
            np.nextafter(ext, 0),  # just below one extent
            centers[5],  # lands exactly on 0
            centers[9] - ext,  # lands exactly on ext
            -centers[11],
            centers[7] + ext,  # longer: lands exactly on -ext, on %
            2.5 * ext,
            -3.25 * ext,
            np.where(np.arange(dim) == 0, 0.4, -1.6) * ext,  # one axis longer than its extent
            np.zeros(dim),
        ]
        for shift in shifts:
            got = harness._wrap_shift(centers, shift, ext)
            expected = (centers - shift) % ext
            np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))


class TestNormsAndRates:
    def test_zero_error(self):
        cfg = small_smooth()
        setup = init_case(cfg)
        exact = setup.exact_alpha(setup.forest.centers, 0.0)
        l1, l2 = _error_norms(setup.forest, setup.field, cfg.fluids, exact)
        assert l1 < 1e-12 and l2 < 1e-12

    def test_run_solves_the_closure_once_for_both_norms(self, monkeypatch):
        cfg = small_smooth()
        solves = []
        solve = eos.solve_alpha
        monkeypatch.setattr(eos, "solve_alpha", lambda *args: solves.append(1) or solve(*args))
        res = run(cfg, write_outputs=False)
        assert len(solves) == 1
        exact = init_case(cfg).exact_alpha(res.forest.centers, res.t)
        l1, l2 = _error_norms(res.forest, res.field, cfg.fluids, exact)
        assert res.l1_alpha == l1 > 0 and res.l2_alpha == l2 > 0

    @pytest.mark.parametrize("norm", [0, 1], ids=["l1_error", "l2_error"])
    def test_zero_density_names_the_leaf(self, norm):
        # both norms come from one closure solve, which checks the density first
        setup = init_case(small_smooth())
        setup.field[5, 0] = 0.0
        exact = setup.exact_alpha(setup.forest.centers, 0.0)
        with pytest.raises(EosError) as err:
            _error_norms(setup.forest, setup.field, setup.fluids, exact)[norm]
        assert str(err.value) == f"non-positive or non-finite density at {setup.forest.leaf_label(5)}"

    def test_two_point_slope(self):
        assert convergence_rate([2.0, 1.0], [0.2, 0.1]) == pytest.approx(1.0)

    def test_too_few_points(self):
        with pytest.raises(ConfigError):
            convergence_rate([1.0], [0.1])

    def test_compression_rate(self):
        conn = Connectivity(2, (1, 1), (True, True))
        f = new_uniform(conn, level=3, b=3)
        assert compression_rate(f) == 1.0
        f2 = new_uniform(conn, level=2, b=3)
        assert compression_rate(f2) == 0.25


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

    def test_adapt_failure_names_the_step_and_the_leaf(self, monkeypatch):
        # the step before an adapt leaves a zero density at leaf 4: the
        # criterion names the leaf, and the run names the time and the step
        step, seen = solver.step, []

        def emptying_step(f, u, *args, **kwargs):
            u, dt = step(f, u, *args, **kwargs)
            u[4, 0] = 0.0
            seen.append((f, dt))
            return u, dt

        monkeypatch.setattr(solver, "step", emptying_step)
        cfg = default_config("disk_advection", max_level=4, min_level=2, adapt_every=1, t_end=0.1)
        with pytest.raises(ArithmeticError) as err:
            run(cfg, write_outputs=False)
        [(f, dt)] = seen
        assert str(err.value) == (
            f"adapt failed at t={dt:.6g} (step 1, {f.nleaves} leaves): "
            f"non-positive or non-finite density at {f.leaf_label(4)}"
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

    def test_time_step_is_booked_under_dt(self, monkeypatch):
        # compute_dt books its face maxima and speeds under "dt" and its
        # closure under "eos"; together they cover nearly all of its time
        cfg = default_config("disk_advection", max_level=5, min_level=3, t_end=0.1)
        spent, booked = [0.0], [0.0]
        real = solver.compute_dt

        def timed(f, u, scfg, fp, prof=None):
            before = prof.seconds["dt"] + prof.seconds["eos"]
            t0 = time.perf_counter()
            try:
                return real(f, u, scfg, fp, prof=prof)
            finally:
                spent[0] += time.perf_counter() - t0
                booked[0] += prof.seconds["dt"] + prof.seconds["eos"] - before

        monkeypatch.setattr(solver, "compute_dt", timed)
        res = run(cfg, write_outputs=False)
        assert res.steps > 0 and res.profile.seconds["dt"] > 0
        assert booked[0] >= 0.8 * spent[0]

    def test_adapted_face_lists_are_built_under_faces(self, monkeypatch):
        # an adapt builds no face list for its new forest: the rebuild that
        # follows builds them inside "faces", with one high-face query and one
        # sub-face query per axis, and the adapt itself queries no neighbour
        cfg = default_config("disk_advection", max_level=5, min_level=3, ranks=2)
        setup = init_case(cfg)
        f, u = setup.forest, setup.field
        prof = harness.Profile()
        harness._rebuild_comm(f, prof)
        for _ in range(2):
            u, _ = solver.step(f, u, cfg.sweep_config, cfg.fluids)
        phases, builds, queries = [], [], []
        section, face_rows, locate = prof.section, Forest._face_rows, Forest.locate

        @contextmanager
        def tracked(name):
            phases.append(name)
            try:
                with section(name):
                    yield
            finally:
                phases.pop()

        def logged(self, axis):
            builds.append((self, tuple(phases)))
            return face_rows(self, axis)

        def counted(self, tree_ids, points):
            queries.append(len(points))
            return locate(self, tree_ids, points)

        monkeypatch.setattr(prof, "section", tracked)
        monkeypatch.setattr(Forest, "_face_rows", logged)
        monkeypatch.setattr(Forest, "locate", counted)
        f2, _ = harness.adapt_mesh(f, u, cfg.criterion_obj, cfg.fluids, prof)
        harness._rebuild_comm(f2, prof)
        assert f2.nleaves != f.nleaves
        assert [(g is f2, p) for g, p in builds] == [(True, ("faces",))] * f2.dim
        assert len(queries) <= 2 * f2.dim

    @staticmethod
    def _logged_run(monkeypatch, cfg, write_outputs):
        """Run ``cfg`` and log, in order, each adapt, face-list build, step, ghost layer, partition and dump."""
        events = []
        adapt, face_rows, step, init = Forest.adapt, Forest._face_rows, solver.step, harness.init_case

        def logged(kind, call):
            def wrapped(f, *args, **kwargs):
                out = call(f, *args, **kwargs)
                events.append((kind, f, out[0] if kind == "adapt" else None))
                return out
            return wrapped

        def fresh_init(c):  # the pre-adapt's builds are not the loop's
            setup = init(c)
            events.clear()
            return setup

        monkeypatch.setattr(Forest, "adapt", logged("adapt", adapt))
        monkeypatch.setattr(Forest, "_face_rows", logged("faces", face_rows))
        monkeypatch.setattr(solver, "step", logged("step", step))
        monkeypatch.setattr(harness, "ghost_layer", logged("ghost", harness.ghost_layer))
        monkeypatch.setattr(harness, "partition", logged("partition", harness.partition))
        monkeypatch.setattr(vtkio, "write_vtk", logged("dump", vtkio.write_vtk))
        monkeypatch.setattr(harness, "init_case", fresh_init)
        return run(cfg, write_outputs=write_outputs), events

    def test_only_a_forest_that_steps_builds_face_lists_and_ghosts(self, monkeypatch, tmp_path):
        # six steps, each followed by an adapt: the fourth changes no leaf and
        # the sixth, the last step's, makes a new mesh that never steps; a
        # stepping forest builds face lists and no ghost layer
        cfg = default_config(
            "disk_advection", max_level=6, min_level=3, adapt_every=1, t_end=0.02, ranks=4, output_dir=str(tmp_path)
        )
        res, events = self._logged_run(monkeypatch, cfg, False)
        kinds = [k for k, _, _ in events]
        adapts = [i for i, k in enumerate(kinds) if k == "adapt"]
        unchanged = [i for i in adapts if events[i][2] is events[i][1]]
        assert res.steps == len(adapts) == 6
        assert "ghost" not in kinds
        assert kinds[adapts[-1]:] == ["adapt", "partition"]  # the last mesh is partitioned at the end, never built
        assert unchanged == adapts[3:4]
        assert res.forest is events[-1][1] is not events[adapts[-1]][1]
        for i in unchanged:  # the forest steps on with what it built
            assert kinds[i + 1 : adapts[adapts.index(i) + 1]] == ["step"]
        for i, (kind, f, _) in enumerate(events):  # each build is for the forest of the next step
            if kind == "faces":
                assert next(g for k, g, _ in events[i:] if k == "step") is f
        builds = [f for k, f, _ in events if k == "faces"]
        assert len(builds) == len({id(f) for f in builds}) * 2  # once per axis and stepping forest
        assert res.partition == partition(res.forest, cfg.ranks)

        # with dumps at steps 2, 4 and 6, a forest is partitioned right before
        # the first dump that shows it, never twice; the final dump shows the
        # step-6 forest again, and only the report builds ghost layers, one
        # per rank of the final forest, after the last dump
        monkeypatch.undo()
        res, events = self._logged_run(monkeypatch, replace(cfg, output_every=2), True)
        kinds = [k for k, _, _ in events]
        dumps = [(i, f) for i, (k, f, _) in enumerate(events) if k == "dump"]
        assert len(dumps) == 5
        new = [i - 1 for j, (i, f) in enumerate(dumps) if j == 0 or f is not dumps[j - 1][1]]
        assert [i for i, k in enumerate(kinds) if k == "partition"] == new
        assert len(new) < len(dumps)
        assert [(i, f) for i, (k, f, _) in enumerate(events) if k == "ghost"] == [
            (i, res.forest) for i in range(len(events) - cfg.ranks, len(events))
        ]
        assert dumps[-1][0] < len(events) - cfg.ranks
        assert res.partition == partition(res.forest, cfg.ranks)

    def test_partition_report_counts_ghosts(self, tmp_path):
        # the report's ghosts column is each rank's ghost-layer size on the
        # final forest, beside the metrics bench_partition_study reports too
        from amrfv.partition import balance_metrics, ghost_layer, metrics_csv

        cfg = default_config("disk_advection", max_level=5, min_level=3, t_end=0.05, ranks=3, output_dir=str(tmp_path))
        for dumps in (0, 2):
            res = run(replace(cfg, output_every=dumps))
            pm = partition(res.forest, cfg.ranks)
            assert res.partition == pm
            ghosts = [len(ghost_layer(res.forest, pm, r).indices) for r in range(pm.P)]
            text = (tmp_path / "disk_advection_partition.csv").read_text()
            assert [int(line.split(",")[-1]) for line in text.splitlines()[1:]] == ghosts
            assert min(ghosts) > 0 and text == metrics_csv(balance_metrics(res.forest, pm), ghosts)
        assert run(cfg, write_outputs=False).partition == pm
        study = harness.bench_partition_study(cfg, [1, 4])
        f = init_case(cfg).forest
        for P, d in study["ranks"].items():
            assert d["ghosts"] == [len(ghost_layer(f, partition(f, P), r).indices) for r in range(P)]
        assert study["ranks"][1]["ghosts"] == [0]

    def test_drop2d_gravity_smoke(self, tmp_path):
        # a few steps of the walled gravity case: liquid must gain downward
        # momentum, mass must be conserved, mesh must stay balanced
        cfg = default_config(
            "drop2d", max_level=4, min_level=2, t_end=2e-5, output_dir=str(tmp_path)
        )
        res = run(cfg)
        f, u = res.forest, res.field
        assert res.steps > 0
        assert oracles.balance(f)[0].nleaves == f.nleaves
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
    return oracles.balance(f.refine(marks)[0])[0]


def _vtk_case(name):
    """(forest, state, fluids, ranks) of one byte-level writer case."""
    fp = default_config("drop2d").fluids
    rng = np.random.default_rng(7)
    if name == "voxel_multi_tree":
        f = _refined(new_uniform(Connectivity(3, (2, 1, 2), (True, False, False), 0.37), level=1, b=4), [0, 9, 30])
        ranks = np.zeros(f.nleaves, dtype=np.int64)
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
        ranks = np.zeros(f.nleaves, dtype=np.int64)
    elif name == "signed_velocities":
        f = new_uniform(Connectivity(2, (1, 1), (True, True)), level=2, b=3)
        ranks = np.arange(f.nleaves) % 2
    else:
        f = new_uniform(Connectivity(2, (1, 1), (True, True)), level=0, b=0)
        ranks = np.zeros(f.nleaves, dtype=np.int64)
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
        vtkio.write_vtk(f, u, fp, path, ranks)
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
        vtkio.write_vtk(f, u, fp, path, np.zeros(1, dtype=np.int64))
        text = path.read_text()
        assert "POINTS 4 double" in text
        assert "CELLS 1 5" in text
        assert "CELL_TYPES 1" in text
        assert "SCALARS rho double 1" in text

    def test_cell_count_matches_leaves(self, tmp_path):
        cfg = default_config("disk_advection", max_level=4, min_level=2)
        setup = init_case(cfg)
        path = tmp_path / "mesh.vtk"
        vtkio.write_vtk(setup.forest, setup.field, cfg.fluids, path, np.zeros(setup.forest.nleaves, dtype=np.int64))
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
        vtkio.write_vtk(f, u, fp, path, np.zeros(f.nleaves, dtype=np.int64))
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
