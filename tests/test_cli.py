import subprocess
import sys

import pytest

from afkit import cli
from afkit.cli import solver_main, toolbox_main
from afkit.formats import parse_answer, parse_apx
from afkit.tasks import Problem

from .conftest import APX_LISTING, TGF_LISTING


@pytest.fixture
def worked_files(tmp_path):
    apx = tmp_path / "myFile.apx"
    tgf = tmp_path / "myFile.tgf"
    apx.write_text(APX_LISTING)
    tgf.write_text(TGF_LISTING)
    return apx, tgf


def run_solver(*argv):
    return subprocess.run(
        [sys.executable, "-m", "afkit.cli", *argv], capture_output=True, text=True, timeout=60
    )


def test_se_co_prints_one_complete_extension(worked_files):
    apx, _ = worked_files
    proc = run_solver("-p", "SE-CO", "-f", str(apx), "-fo", "apx")
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.endswith("\n") and proc.stdout.count("\n") == 1
    af = parse_apx(APX_LISTING)
    answer = parse_answer(proc.stdout, Problem.SE)
    assert af.is_complete_set(af.mask_of(answer.names))


def test_dc_co_on_tgf_numeric_names(worked_files):
    _, tgf = worked_files
    proc = run_solver("-p", "DC-CO", "-f", str(tgf), "-fo", "tgf", "-a", "3")
    assert proc.returncode == 0
    assert proc.stdout == "YES\n"


def test_ce_id_is_rejected_without_output(worked_files):
    apx, _ = worked_files
    proc = run_solver("-p", "CE-ID", "-f", str(apx), "-fo", "apx")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr != ""


def test_usage_errors_exit_one(worked_files):
    apx, _ = worked_files
    for argv in (
        [],
        ["-p", "SE-CO"],
        ["-p", "SE-CO", "-f", str(apx), "-fo", "gml"],
        ["-p", "EE-CO", "-f", str(apx), "-fo", "apx"],
        ["-p", "SE-GR", "-f", str(apx), "-fo", "apx"],
    ):
        proc = run_solver(*argv)
        assert proc.returncode == 1, argv
        assert proc.stdout == ""
        assert proc.stderr != ""


def test_parse_failures_exit_two(tmp_path):
    bad = tmp_path / "bad.apx"
    bad.write_text("arg(a).\nbogus line\n")
    proc = run_solver("-p", "SE-CO", "-f", str(bad), "-fo", "apx")
    assert proc.returncode == 2
    assert proc.stdout == ""
    proc = run_solver("-p", "SE-CO", "-f", str(tmp_path / "missing.apx"), "-fo", "apx")
    assert proc.returncode == 2


def test_non_utf8_input_exits_two(tmp_path):
    for fmt, text in (("apx", b"arg(a).\narg(\xff).\n"), ("tgf", b"1\n\xff\n#\n")):
        path = tmp_path / f"bad.{fmt}"
        path.write_bytes(text)
        proc = run_solver("-p", "SE-CO", "-f", str(path), "-fo", fmt)
        assert proc.returncode == 2, fmt
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"af-solver: {path}: ")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def test_solver_path_skips_toolbox_imports(tmp_path):
    tiny = tmp_path / "tiny.apx"
    tiny.write_text("arg(a).\narg(b).\natt(a,b).\n")
    script = (
        "import sys\n"
        "from afkit import cli\n"
        f"code = cli.solver_main(['-p', 'SE-CO', '-f', {str(tiny)!r}, '-fo', 'apx'])\n"
        "print(sorted(m for m in ('afkit.harness', 'afkit.benchgen') if m in sys.modules))\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[a]\n[]\n"


def test_unknown_query_exits_three(worked_files):
    apx, _ = worked_files
    proc = run_solver("-p", "DC-CO", "-f", str(apx), "-fo", "apx", "-a", "zz")
    assert proc.returncode == 3
    assert proc.stdout == ""


def test_approx_mode(worked_files):
    apx, _ = worked_files
    proc = run_solver("-p", "DS-CO", "-f", str(apx), "-fo", "apx", "-a", "a1", "--mode", "approx")
    assert proc.returncode == 0
    assert proc.stdout == "NO\n"
    proc = run_solver("-p", "SE-CO", "-f", str(apx), "-fo", "apx", "--mode", "approx")
    assert proc.returncode == 3


def test_listing_flags():
    proc = run_solver("--formats")
    assert proc.returncode == 0
    assert proc.stdout == "[apx,tgf]\n"
    proc = run_solver("--problems")
    assert proc.returncode == 0
    listed = proc.stdout.strip().strip("[]").split(",")
    assert "SE-CO" in listed and "DS-ID" in listed and "CE-ID" not in listed
    assert len([t for t in listed if not t.startswith("DC-ID")]) == 22


def test_solver_main_in_process(worked_files, capsys):
    apx, _ = worked_files
    code = solver_main(["-p", "CE-CO", "-f", str(apx), "-fo", "apx"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "3\n"
    assert captured.err == ""


def test_deep_search_has_no_recursion_limit(tmp_path):
    # 1500 disjoint 2-cycles: the first branch of the search is 1500 deep.
    lines = [f"arg(a{i})." for i in range(3000)]
    for k in range(0, 3000, 2):
        lines += [f"att(a{k},a{k + 1}).", f"att(a{k + 1},a{k})."]
    cycles = tmp_path / "cycles.apx"
    cycles.write_text("\n".join(lines) + "\n")
    proc = run_solver("-p", "DC-CO", "-f", str(cycles), "-fo", "apx", "-a", "a0")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "YES\n"


def test_internal_error_exits_five(worked_files, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("engine fault")

    monkeypatch.setattr(cli, "solve", broken)
    apx, _ = worked_files
    code = solver_main(["-p", "SE-PR", "-f", str(apx), "-fo", "apx"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INTERNAL == 5
    assert captured.out == ""
    assert captured.err == "af-solver: internal error: RuntimeError: engine fault\n"


GEN_CONFIG = """
seed = 77
meta_kind = er
meta_n = 3
meta_p = 1.0
inner_size_min = 3
inner_size_max = 3
inner_p = 0.4
bridges_per_meta_edge = 1
"""


def test_toolbox_generate_is_deterministic(tmp_path, capsys):
    config = tmp_path / "gen.cfg"
    config.write_text(GEN_CONFIG)
    for out in ("one", "two"):
        code = toolbox_main(
            ["generate", "--config", str(config), "--count", "3", "--out", str(tmp_path / out)]
        )
        assert code == 0
    capsys.readouterr()
    for name in sorted(p.name for p in (tmp_path / "one").iterdir()):
        a = (tmp_path / "one" / name).read_bytes()
        b = (tmp_path / "two" / name).read_bytes()
        assert a == b, name


def test_toolbox_run_and_score(tmp_path, capsys):
    config = tmp_path / "gen.cfg"
    config.write_text(GEN_CONFIG)
    bench = tmp_path / "bench"
    assert toolbox_main(["generate", "--config", str(config), "--count", "2", "--out", str(bench)]) == 0
    manifest = tmp_path / "solvers"
    manifest.write_text("builtin=@builtin-exact\n")
    runlog = tmp_path / "runlog"
    code = toolbox_main(
        [
            "run",
            "--track", "exact",
            "--solvers", str(manifest),
            "--instances", str(bench),
            "--out", str(runlog),
            "--subtracks", "ID",
            "--timeout", "60",
        ]
    )
    assert code == 0
    capsys.readouterr()
    assert toolbox_main(["score", "--runlog", str(runlog)]) == 0
    report = capsys.readouterr().out
    assert "subtrack ID" in report
    assert "builtin" in report
    # 2 instances x (SE-ID, DS-ID), all correct
    assert f"{4:>8}" in report


def test_toolbox_score_fixture(tmp_path, capsys):
    runlog = tmp_path / "fixture.runlog"
    runlog.write_text(
        "# track=exact\n"
        "# subtracks=CO\n"
        "a\ti1\tCE-CO\tcorrect\t1.000000\n"
        "a\ti1\tSE-CO\ttimeout\t600.000000\n"
        "a\ti1\tDC-CO\tnonparsable\t2.000000\n"
        "a\ti1\tDS-CO\tcorrect\t3.000000\n"
        "b\ti1\tCE-CO\twrong\t1.000000\n"
        "b\ti1\tSE-CO\tcorrect\t1.000000\n"
        "b\ti1\tDC-CO\tcorrect\t1.000000\n"
        "b\ti1\tDS-CO\tcorrect\t1.000000\n"
    )
    assert toolbox_main(["score", "--runlog", str(runlog)]) == 0
    report = capsys.readouterr().out
    assert "excluded: b" in report
    lines = [line for line in report.splitlines() if line.strip().startswith("1")]
    assert any("a" in line and f"{2:>8}" in line for line in lines)


def test_toolbox_oracle_check(tmp_path, capsys):
    config = tmp_path / "gen.cfg"
    config.write_text(GEN_CONFIG)
    bench = tmp_path / "bench"
    toolbox_main(["generate", "--config", str(config), "--count", "2", "--out", str(bench)])
    capsys.readouterr()
    code = toolbox_main(["oracle-check", "--instances", str(bench), "--max-args", "12"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 mismatches" in out


def test_toolbox_usage_error(capsys):
    assert toolbox_main(["generate", "--config", "/nope", "--count", "1", "--out", "x"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err != ""
