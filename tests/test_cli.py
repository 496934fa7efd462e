from pathlib import Path

import pytest

from amrfv.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write_cfg(tmp_path, body):
    p = tmp_path / "case.ini"
    p.write_text(body)
    return str(p)


@pytest.fixture
def tiny_disk(tmp_path):
    return write_cfg(
        tmp_path,
        "[case]\nname = disk_advection\nt_end = 0.05\n"
        "[mesh]\nmax_level = 4\nmin_level = 2\n"
        f"[run]\noutput_dir = {tmp_path / 'out'}\n",
    )


class TestRun:
    def test_run_writes_artifacts(self, tiny_disk, tmp_path, capsys):
        assert main(["run", tiny_disk, "--cut"]) == 0
        out = capsys.readouterr().out
        assert "case disk_advection" in out
        assert "compression rate" in out
        outdir = tmp_path / "out"
        assert (outdir / "disk_advection_final.vtk").exists()
        assert (outdir / "disk_advection_profile.csv").exists()
        assert (outdir / "disk_advection_partition.csv").exists()
        assert (outdir / "disk_advection_cut.csv").exists()

    def test_missing_config_fails(self, capsys):
        assert main(["run", "no/such/file.ini"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_case_fails(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "[case]\nname = nonsense\n")
        assert main(["run", cfg]) == 1
        assert "error:" in capsys.readouterr().err


class TestStudies:
    def test_converge(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            "[case]\nname = smooth_advection\nt_end = 0.25\n"
            f"[run]\noutput_dir = {tmp_path / 'out'}\n",
        )
        assert main(["converge", cfg, "--levels", "3:4", "--orders", "1"]) == 0
        out = capsys.readouterr().out
        assert "order 1:" in out
        text = (tmp_path / "out" / "convergence.csv").read_text()
        assert text.splitlines()[0] == "order,level,dx,l1,l2"
        assert len(text.splitlines()) == 3

    def test_compare_amr(self, tiny_disk, tmp_path, capsys):
        assert main(["compare-amr", tiny_disk, "--xi", "5e-5", "--compression", "0:1"]) == 0
        out = capsys.readouterr().out
        assert "compression 0:" in out and "compression 1:" in out
        csv = (tmp_path / "out" / "compare_amr.csv").read_text()
        assert csv.startswith("compression,xi,l1,cells")

    def test_bench_partition(self, tiny_disk, tmp_path, capsys):
        assert main(["bench-partition", tiny_disk, "--ranks", "1,2,4"]) == 0
        out = capsys.readouterr().out
        assert "P=4:" in out
        for P in (1, 2, 4):
            csv = (tmp_path / "out" / f"partition_P{P}.csv").read_text()
            assert csv.splitlines()[0] == "rank,leaves,frontier,ratio,components,ghosts"

    @pytest.mark.parametrize(
        "command, flag, value",
        [("converge", "--levels", "4:"), ("bench-partition", "--ranks", "1,x"), ("compare-amr", "--compression", "2:1")],
    )
    def test_malformed_or_empty_range_fails(self, tiny_disk, tmp_path, capsys, command, flag, value):
        assert main([command, tiny_disk, flag, value]) == 1
        assert capsys.readouterr().err == (
            f"error: {flag} {value!r} is not a non-empty range of integers, such as 4:7 or 4,5,6,7\n"
        )
        assert not (tmp_path / "out").exists()


class TestShippedConfigs:
    def test_shock_tube_config_runs(self, tmp_path, capsys):
        # shipped config, shortened and redirected
        body = (CONFIGS / "shock_tube.ini").read_text()
        body = body.replace("t_end = 0.08", "t_end = 0.005")
        body = body.replace("output_dir = out/shock", f"output_dir = {tmp_path}")
        cfg = write_cfg(tmp_path, body)
        assert main(["run", cfg]) == 0
        assert "case shock_tube" in capsys.readouterr().out
