"""``tools/same_reports.py`` compares the files that must not change."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("same_reports", ROOT / "tools" / "same_reports.py")
same_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_reports)


def _tree(path: Path, files: dict) -> str:
    path.mkdir()
    for name, text in files.items():
        (path / name).write_text(text)
    return str(path)


def test_reports_and_summary_are_compared_byte_for_byte(tmp_path):
    same = {"KPT.report.txt": "k: 2\n", "summary.csv": "variant,ari,ca\n"}
    a = _tree(tmp_path / "a", {**same, "KPT.timings.txt": "cluster_s: 0.5\n"})
    b = _tree(tmp_path / "b", {**same, "KPT.timings.txt": "cluster_s: 0.7\n"})
    assert same_reports.differences(a, b) == []  # wall-clock sidecars differ freely
    (tmp_path / "b" / "KPT.report.txt").write_text("k: 2 \n")
    (tmp_path / "a" / "BD.report.txt").write_text("k: 2\n")
    assert same_reports.differences(a, b) == [
        "BD.report.txt (missing from one tree)",
        "KPT.report.txt",
    ]


def test_bad_arguments_exit_2(tmp_path):
    assert same_reports.main([str(tmp_path)]) == 2
    assert same_reports.main([str(tmp_path), str(tmp_path)]) == 2  # no harr package


def test_files_the_change_tree_wrote_must_reload(tmp_path):
    from harr.report import ReportFile, TimingsFile, save_summary, save_timings

    out = tmp_path / "out"
    save_timings(TimingsFile("KPT", 0.125, ((0, 0.5, 0.25),)), str(out / "KPT.timings.txt"))
    unscored = ReportFile("KPT", "d.csv", "s.txt", None, 2, 0, 100, 50, 0, ())
    save_summary([unscored], str(out / "summary.csv"))
    (out / "notes.txt").write_text("not a harr file\n")  # not one of the loaded files
    src = str(ROOT / "src")
    assert same_reports.reload_failures(src, str(out)) == []
    (out / "BD.report.txt").write_text("format: harr-report-v2\n")
    (out / "summary.csv").write_text("# format: harr-summary-v1\nvariant,ari,ca\nKPT,none\n")
    assert same_reports.reload_failures(src, str(out)) == [
        f"BD.report.txt: {out / 'BD.report.txt'}: truncated at line 2",
        f"summary.csv: {out / 'summary.csv'}, line 3: 2 fields, expected 3",
    ]


def test_a_variant_runs_alone_with_the_other_arguments_and_one_worker(tmp_path):
    argv = ["cluster", "--data", "d.csv", "--workers", "2", "--variant", "KPT", "--variant", "HAR"]
    assert same_reports.alone_argv(argv, "HARR-V") == [
        "cluster", "--data", "d.csv", "--workers", "1", "--variant", "HARR-V",
    ]
    a = _tree(tmp_path / "beside", {"HAR.report.txt": "k: 2\n", "summary.csv": "HAR\nKPT\n"})
    b = _tree(tmp_path / "alone", {"HAR.report.txt": "k: 2\n", "summary.csv": "HAR\n"})
    assert same_reports.differences(a, b, ["HAR.report.txt"]) == []  # the summary is not compared
    (tmp_path / "alone" / "HAR.report.txt").write_text("k: 3\n")
    assert same_reports.differences(a, b, ["HAR.report.txt"]) == ["HAR.report.txt"]
