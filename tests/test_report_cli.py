import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import harr
from harr.bench import BenchConfig, cmd_bench_time, cmd_cluster, cmd_trace_plot
from harr.cli import main
from harr.cluster import ConfigError, PhaseTimings, RunReport
from harr.evaluation import ari, ca
from harr.report import (
    ReportFile,
    TimingsFile,
    load_bench_time,
    load_report,
    load_summary,
    load_timings,
    load_trace,
    read_label_file,
    save_bench_time,
    save_report,
    save_summary,
    save_timings,
    save_trace,
    variant_slug,
    write_label_file,
)
from harr.synth import SyntheticSpec, write_synthetic


def _run_report(variant="HARR-V", seed=0, weights=(0.25, 0.75), matrix=None):
    return RunReport(
        variant=variant,
        k=2,
        seed=seed,
        labels=(1, 2, 2, 1),
        weights=weights,
        weight_matrix=matrix,
        trace_z=(12.5, 3.25, 3.25),
        trace_weights_updated=(False, True, False),
        trace_reseeded=(False, False, False),
        inner_iterations=3,
        weight_updates=1,
        converged=True,
        inner_monotone=True,
        max_inner_increase=0.0,
        ari=0.5,
        ca=0.75,
        timings=PhaseTimings(0.1, 0.2, 0.05),
    )


def _report_file(runs, variant="HARR-V"):
    return ReportFile(
        variant=variant,
        dataset="data.csv",
        schema="schema.txt",
        labels_file="labels.txt",
        k=2,
        runs=len(runs),
        base_seed=0,
        bins=None,
        inner_cap=100,
        outer_cap=50,
        epsilon=1e-12,
        d_hat=5,
        ari_mean=0.5,
        ari_std=0.0,
        ca_mean=0.75,
        ca_std=0.0,
        run_reports=tuple(runs),
    )


class TestReportRoundtrip:
    def test_vector_weights(self, tmp_path):
        report = _report_file([_run_report(seed=s) for s in range(2)])
        path = save_report(report, str(tmp_path / "r.txt"))
        assert load_report(path) == report

    def test_matrix_weights(self, tmp_path):
        runs = [
            _run_report(
                variant="HARR-M",
                weights=None,
                matrix=((0.5, 0.5), (0.125, 0.875)),
            )
        ]
        report = _report_file(runs, variant="HARR-M")
        path = save_report(report, str(tmp_path / "r.txt"))
        assert load_report(path) == report

    def test_no_weights_no_scores(self, tmp_path):
        run = RunReport(
            variant="KPT",
            k=2,
            seed=3,
            labels=(1, 2),
            weights=None,
            weight_matrix=None,
            trace_z=(0.5,),
            trace_weights_updated=(False,),
            trace_reseeded=(False,),
            inner_iterations=1,
            weight_updates=0,
            converged=True,
            inner_monotone=True,
            max_inner_increase=0.0,
        )
        report = ReportFile(
            variant="KPT",
            dataset="d",
            schema="s",
            labels_file=None,
            k=2,
            runs=1,
            base_seed=3,
            bins=4,
            inner_cap=10,
            outer_cap=5,
            epsilon=1e-12,
            d_hat=2,
            ari_mean=None,
            ari_std=None,
            ca_mean=None,
            ca_std=None,
            run_reports=(run,),
        )
        path = save_report(report, str(tmp_path / "r.txt"))
        assert load_report(path) == report

    def test_exact_float_reload(self, tmp_path):
        run = _run_report(weights=(1 / 3, 2 / 3))
        path = save_report(_report_file([run]), str(tmp_path / "r.txt"))
        loaded = load_report(path)
        assert loaded.run_reports[0].weights == (1 / 3, 2 / 3)


def test_timings_roundtrip(tmp_path):
    timings = TimingsFile("HARR-V", 0.125, ((0, 0.5, 0.25), (1, 0.75, 0.1)))
    path = save_timings(timings, str(tmp_path / "t.txt"))
    assert load_timings(path) == timings


def test_summary_roundtrip(tmp_path):
    from harr.evaluation import RunSummary

    rows = [
        RunSummary("KPT", 20, 0.5, 0.1, 0.75, 0.05),
        ("BD", None),
    ]
    path = save_summary(rows, str(tmp_path / "summary.csv"))
    loaded = load_summary(path)
    assert loaded == [
        ("KPT", "0.5000±0.1000", "0.7500±0.0500"),
        ("BD", "none", "none"),
    ]


def test_trace_roundtrip_and_empty(tmp_path):
    rows = [("HARR-V", 0, 1, 12.5, False), ("HARR-V", 0, 2, 3.25, True)]
    path = save_trace(rows, str(tmp_path / "trace.csv"))
    assert load_trace(path) == rows
    with pytest.raises(ValueError, match="no trace rows"):
        save_trace([], str(tmp_path / "empty.csv"))


def test_bench_time_roundtrip(tmp_path):
    rows = [(0.2, 40, "HARR-V", 0.015), (1.0, 200, "HARR-M", 0.12)]
    path = save_bench_time(rows, str(tmp_path / "bench.csv"))
    assert load_bench_time(path) == rows


def test_label_file_roundtrip(tmp_path):
    path = write_label_file([1, 2, 3, 1], str(tmp_path / "labels.txt"))
    assert read_label_file(path) == (1, 2, 3, 1)


def test_variant_slug():
    assert variant_slug("OHE+OC") == "OHE_OC"
    assert variant_slug("HARR-V") == "HARR-V"


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synthdata")
    spec = SyntheticSpec(
        n=120, k_true=3, d_u=1, d_n=2, d_o=1, values=5, separation=0.9, seed=0
    )
    return write_synthetic(spec, str(out))


class TestCmdCluster:
    def test_end_to_end_with_scores(self, synth_dir, tmp_path):
        cfg = BenchConfig(
            data=synth_dir["data"],
            schema=synth_dir["schema"],
            labels=synth_dir["labels"],
            variants=("KPT", "HARR-M"),
            k=3,
            runs=3,
            base_seed=0,
            out_dir=str(tmp_path / "out"),
        )
        reports = cmd_cluster(cfg)
        assert [r.variant for r in reports] == ["KPT", "HARR-M"]
        truth = read_label_file(synth_dir["labels"])
        for report in reports:
            loaded = load_report(
                f"{cfg.out_dir}/{variant_slug(report.variant)}.report.txt"
            )
            assert loaded == report
            # aggregate means equal arithmetic means of per-run scores
            aris = [ari(truth, run.labels) for run in report.run_reports]
            cas = [ca(truth, run.labels) for run in report.run_reports]
            assert report.ari_mean == pytest.approx(float(np.mean(aris)), abs=1e-12)
            assert report.ca_mean == pytest.approx(float(np.mean(cas)), abs=1e-12)
            timings = load_timings(
                f"{cfg.out_dir}/{variant_slug(report.variant)}.timings.txt"
            )
            assert len(timings.runs) == 3
        summary = load_summary(f"{cfg.out_dir}/summary.csv")
        assert [row[0] for row in summary] == ["KPT", "HARR-M"]

    def test_single_run_zero_std(self, synth_dir, tmp_path):
        cfg = BenchConfig(
            data=synth_dir["data"],
            schema=synth_dir["schema"],
            labels=synth_dir["labels"],
            variants=("KPT",),
            k=3,
            runs=1,
            out_dir=str(tmp_path / "out"),
        )
        report = cmd_cluster(cfg)[0]
        assert report.ari_std == 0.0 and report.ca_std == 0.0

    def test_reports_byte_identical_across_reruns(self, synth_dir, tmp_path):
        common = dict(
            data=synth_dir["data"],
            schema=synth_dir["schema"],
            labels=synth_dir["labels"],
            variants=("HARR-V", "OHE+OC"),
            k=3,
            runs=2,
            base_seed=5,
        )
        cfg_a = BenchConfig(out_dir=str(tmp_path / "a"), **common)
        cfg_b = BenchConfig(out_dir=str(tmp_path / "b"), **common)
        cmd_cluster(cfg_a)
        cmd_cluster(cfg_b)
        for name in ("HARR-V.report.txt", "OHE_OC.report.txt", "summary.csv"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b

    def test_workers_do_not_change_results(self, synth_dir, tmp_path):
        common = dict(
            data=synth_dir["data"],
            schema=synth_dir["schema"],
            labels=synth_dir["labels"],
            variants=("HARR-M",),
            k=3,
            runs=4,
        )
        serial = cmd_cluster(
            BenchConfig(out_dir=str(tmp_path / "s"), workers=1, **common)
        )
        parallel = cmd_cluster(
            BenchConfig(out_dir=str(tmp_path / "p"), workers=3, **common)
        )
        assert serial == parallel

    def test_seed_ladder_independence(self, synth_dir, tmp_path):
        # the report for a given seed does not depend on how many other
        # seeds ran alongside it
        common = dict(
            data=synth_dir["data"],
            schema=synth_dir["schema"],
            labels=synth_dir["labels"],
            variants=("HARR-V",),
            k=3,
        )
        wide = cmd_cluster(
            BenchConfig(out_dir=str(tmp_path / "w"), runs=4, base_seed=3, **common)
        )[0]
        narrow = cmd_cluster(
            BenchConfig(out_dir=str(tmp_path / "n"), runs=1, base_seed=5, **common)
        )[0]
        by_seed = {r.seed: r for r in wide.run_reports}
        assert narrow.run_reports[0] == by_seed[5]

    def test_ablation_table_structure(self, tmp_path):
        # pure categorical data supports the full five-variant ladder
        spec = SyntheticSpec(
            n=90, k_true=3, d_n=3, values=5, separation=0.9, seed=6
        )
        paths = write_synthetic(spec, str(tmp_path / "synth"))
        ladder = ("KMD", "BD", "HAR", "HARR-V", "HARR-M")
        cfg = BenchConfig(
            data=paths["data"],
            schema=paths["schema"],
            labels=paths["labels"],
            variants=ladder,
            k=3,
            runs=2,
            out_dir=str(tmp_path / "out"),
        )
        cmd_cluster(cfg)
        summary = load_summary(f"{cfg.out_dir}/summary.csv")
        assert [row[0] for row in summary] == list(ladder)
        assert all("±" in row[1] for row in summary)

    def test_label_length_mismatch(self, synth_dir, tmp_path):
        bad = tmp_path / "short.txt"
        bad.write_text("1\n2\n")
        cfg = BenchConfig(
            data=synth_dir["data"],
            schema=synth_dir["schema"],
            labels=str(bad),
            variants=("KPT",),
            k=3,
            runs=1,
            out_dir=str(tmp_path / "out"),
        )
        from harr.schema import DataError

        with pytest.raises(DataError, match="label file"):
            cmd_cluster(cfg)


class TestCmdBenchTime:
    def test_sweep_and_subsample_arithmetic(self, synth_dir, tmp_path):
        cfg = BenchConfig(
            data=synth_dir["data"],
            schema=synth_dir["schema"],
            variants=("HARR-V",),
            k=3,
            phis=(0.05, 0.5, 1.0),
            repeats=1,
            out_dir=str(tmp_path / "out"),
        )
        rows = cmd_bench_time(cfg)
        assert [row[1] for row in rows] == [6, 60, 120]  # ceil(phi * 120)
        loaded = load_bench_time(f"{cfg.out_dir}/bench_time.csv")
        assert loaded == rows

    def test_subsample_smaller_than_k(self, synth_dir, tmp_path):
        cfg = BenchConfig(
            data=synth_dir["data"],
            schema=synth_dir["schema"],
            variants=("KPT",),
            k=3,
            phis=(0.01,),
            repeats=1,
            out_dir=str(tmp_path / "out"),
        )
        with pytest.raises(ConfigError, match="fewer than k"):
            cmd_bench_time(cfg)


class TestCmdTrace:
    def test_collects_multiple_reports(self, synth_dir, tmp_path):
        cfg = BenchConfig(
            data=synth_dir["data"],
            schema=synth_dir["schema"],
            labels=synth_dir["labels"],
            variants=("HARR-V", "HARR-M"),
            k=3,
            runs=1,
            out_dir=str(tmp_path / "out"),
        )
        cmd_cluster(cfg)
        out = str(tmp_path / "trace.csv")
        cmd_trace_plot(
            [
                f"{cfg.out_dir}/HARR-V.report.txt",
                f"{cfg.out_dir}/HARR-M.report.txt",
            ],
            out,
        )
        rows = load_trace(out)
        variants = {row[0] for row in rows}
        assert variants == {"HARR-V", "HARR-M"}
        # converged runs end with two equal objective values
        v_rows = [row for row in rows if row[0] == "HARR-V"]
        assert v_rows[-1][3] == pytest.approx(v_rows[-2][3])


class TestCliMain:
    def test_full_pipeline(self, tmp_path, capsys):
        synth_out = str(tmp_path / "synth")
        assert (
            main(
                [
                    "synth",
                    "--n", "90",
                    "--k-true", "3",
                    "--d-u", "1",
                    "--d-n", "2",
                    "--d-o", "0",
                    "--values", "4",
                    "--separation", "0.9",
                    "--seed", "1",
                    "--out", synth_out,
                ]
            )
            == 0
        )
        run_out = str(tmp_path / "runs")
        assert (
            main(
                [
                    "cluster",
                    "--data", f"{synth_out}/data.csv",
                    "--schema", f"{synth_out}/schema.txt",
                    "--labels", f"{synth_out}/labels.txt",
                    "--k", "3",
                    "--variant", "HARR-M",
                    "--variant", "KPT",
                    "--runs", "2",
                    "--seed", "0",
                    "--out", run_out,
                ]
            )
            == 0
        )
        captured = capsys.readouterr().out
        assert "HARR-M" in captured and "ari" in captured
        # eval mode on the ground truth against itself
        assert (
            main(
                [
                    "eval",
                    "--labels", f"{synth_out}/labels.txt",
                    "--pred", f"{synth_out}/labels.txt",
                ]
            )
            == 0
        )
        assert "ARI: 1.000000" in capsys.readouterr().out
        assert (
            main(
                [
                    "trace",
                    "--report", f"{run_out}/HARR-M.report.txt",
                    "--out", str(tmp_path / "trace.csv"),
                ]
            )
            == 0
        )

    def test_config_error_exit_code(self, tmp_path):
        out = str(tmp_path / "synth")
        main(["synth", "--n", "30", "--k-true", "2", "--d-n", "1", "--out", out])
        code = main(
            [
                "cluster",
                "--data", f"{out}/data.csv",
                "--schema", f"{out}/schema.txt",
                "--k", "1",
                "--runs", "1",
                "--out", str(tmp_path / "runs"),
            ]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "command",
        [
            ["cluster", "--variant", "HARR-V", "--runs", "1"],
            ["cluster", "--variant", "KPT", "--runs", "1"],
            ["bench-time", "--variant", "HARR-V", "--phi", "1.0", "--repeats", "1"],
        ],
    )
    def test_bins_below_two_is_config_error(self, tmp_path, command):
        out = str(tmp_path / "synth")
        main(["synth", "--n", "30", "--k-true", "2", "--d-u", "1", "--d-n", "1", "--out", out])
        code = main(
            command
            + [
                "--data", f"{out}/data.csv",
                "--schema", f"{out}/schema.txt",
                "--k", "2",
                "--bins", "1",
                "--out", str(tmp_path / "runs"),
            ]
        )
        assert code == 2

    def test_data_error_exit_code(self, tmp_path):
        code = main(
            [
                "cluster",
                "--data", str(tmp_path / "missing.csv"),
                "--schema", str(tmp_path / "missing.txt"),
                "--k", "2",
                "--out", str(tmp_path / "runs"),
            ]
        )
        assert code == 3

    def test_strict_nonconvergence_exit_code(self, tmp_path):
        out = str(tmp_path / "synth")
        main(
            [
                "synth",
                "--n", "60",
                "--k-true", "3",
                "--d-n", "3",
                "--values", "5",
                "--separation", "0.2",
                "--seed", "4",
                "--out", out,
            ]
        )
        code = main(
            [
                "cluster",
                "--data", f"{out}/data.csv",
                "--schema", f"{out}/schema.txt",
                "--k", "3",
                "--variant", "KMD",
                "--runs", "1",
                "--inner-cap", "1",
                "--strict",
                "--out", str(tmp_path / "runs"),
            ]
        )
        assert code == 4

    def test_impossible_synth_spec_is_data_error(self, tmp_path):
        code = main(
            [
                "synth",
                "--n", "10",
                "--k-true", "9",
                "--d-n", "1",
                "--values", "4",
                "--out", str(tmp_path / "synth"),
            ]
        )
        assert code == 3


def test_cli_import_loads_no_scipy():
    """``harr cluster`` pays for its imports in every process; scipy alone
    used to add more than half a second, so the CLI must not load it."""
    src = str(Path(harr.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = (
        "import sys, harr.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert out.stdout.strip() == "[]"
