import argparse
import errno
import io as stdio
import json
import os
from pathlib import Path

import pytest

from coocsim import cli
from coocsim.cli import _build_parser, main
from coocsim.io import write_report_csv
from coocsim.metrics import NeighborhoodReport, significant_populations

DATA = Path(__file__).resolve().parents[1] / "data"
TEST_DATA = Path(__file__).resolve().parent / "data"


def run_cli(*args):
    return main([str(a) for a in args])


def _run_args(tmp_path, out, **overrides):
    args = {
        "--rules": DATA / "rules.txt",
        "--matrix": DATA / "matrix_small_set.txt",
        "--side": 31,
        "--size": 15,
        "--steps": 5,
        "--seed": 99,
        "--report-ticks": "0,5",
        "--target": "walkers",
        "--distance": 2.0,
        "--out": out,
    }
    args.update(overrides)
    flat = []
    for key, value in args.items():
        flat += [key, value]
    return flat


def test_a_cardinality_beyond_int64_runs_as_one_above_every_agent(tmp_path):
    """A cardinality of 2**63 or more never applies, so a run with it writes the
    reports of a run whose cardinality is one above its 30 agents."""
    reports = []
    for cardinality in (10**20, 31):
        matrix = tmp_path / f"matrix_{cardinality}.txt"
        matrix.write_text("particles walk 0 0\nwalkers walk 0 0\n"
                          f"particles cooc 1 {cardinality} walkers 2\n")
        out = tmp_path / f"out_{cardinality}"
        assert run_cli("run", *_run_args(tmp_path, out, **{"--matrix": matrix})) == 0
        reports.append([(out / f"report_t{tick}.csv").read_bytes() for tick in (0, 5)])
    assert reports[0] == reports[1]


def test_run_writes_reports_and_meta(tmp_path, capsys):
    out = tmp_path / "out"
    rc = run_cli("run", *_run_args(tmp_path, out))
    assert rc == 0
    assert (out / "report_t0.csv").exists()
    assert (out / "report_t5.csv").exists()
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["seed"] == 99
    assert meta["steps"] == 5
    assert meta["target"] == "walkers"
    assert meta["report_ticks"] == [0, 5]
    assert meta["sizes"]["walkers"] == 15
    assert meta["crowding"]["critical_count"] == 240
    assert meta["version"]
    err = capsys.readouterr().err
    assert "crowding" not in err  # 195 agents stay under the threshold


def test_run_zero_steps_reports_initial_state(tmp_path):
    out = tmp_path / "out"
    rc = run_cli("run", *_run_args(tmp_path, out, **{"--steps": 0, "--report-ticks": "0"}))
    assert rc == 0
    assert (out / "report_t0.csv").exists()
    assert not (out / "report_t5.csv").exists()


def test_run_default_report_tick_is_final(tmp_path):
    out = tmp_path / "out"
    args = _run_args(tmp_path, out)
    ix = args.index("--report-ticks")
    del args[ix:ix + 2]
    rc = run_cli("run", *args)
    assert rc == 0
    assert (out / "report_t5.csv").exists()
    assert not (out / "report_t0.csv").exists()


def test_run_missing_matrix_file_names_path(tmp_path, capsys):
    out = tmp_path / "out"
    rc = run_cli("run", *_run_args(tmp_path, out, **{"--matrix": tmp_path / "nope.txt"}))
    assert rc == 1
    assert "nope.txt" in capsys.readouterr().err


def test_run_rejects_report_ticks_beyond_steps(tmp_path, capsys):
    out = tmp_path / "out"
    rc = run_cli("run", *_run_args(tmp_path, out, **{"--report-ticks": "0,9"}))
    assert rc == 1
    assert "[0, 5]" in capsys.readouterr().err


def test_run_rejects_unknown_target(tmp_path, capsys):
    out = tmp_path / "out"
    rc = run_cli("run", *_run_args(tmp_path, out, **{"--target": "ghost"}))
    assert rc == 1
    assert "ghost" in capsys.readouterr().err


def test_run_parse_error_carries_path_and_line(tmp_path, capsys):
    bad = tmp_path / "bad_matrix.txt"
    bad.write_text("particles walk 0\n")
    out = tmp_path / "out"
    rc = run_cli("run", *_run_args(tmp_path, out, **{"--matrix": bad}))
    assert rc == 1
    err = capsys.readouterr().err
    assert "bad_matrix.txt" in err and "line 1" in err


def test_run_sizes_file_overrides(tmp_path):
    out = tmp_path / "out"
    rc = run_cli(
        "run", "--rules", DATA / "rules.txt", "--matrix", DATA / "matrix_toy.txt",
        "--side", 51, "--size", 100, "--sizes", DATA / "sizes_toy_200_800.txt",
        "--steps", 2, "--seed", 4, "--report-ticks", "2",
        "--target", "walkers", "--out", out,
    )
    assert rc == 0
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["sizes"] == {"walkers": 200, "particles": 800}


def test_run_writes_snapshots_when_asked(tmp_path):
    out = tmp_path / "out"
    rc = run_cli("run", *_run_args(tmp_path, out), "--snapshots")
    assert rc == 0
    data = (out / "snapshot_t5.ppm").read_bytes()
    assert data.startswith(b"P6\n248 248\n255\n")


def _assert_rejected_before_output(rc, out, err, word):
    assert rc == 1
    assert not out.exists()
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and word in lines[0]


@pytest.mark.parametrize("lines, word", [
    ("walkers 200\nparticle 800\n", "'particle' is not in the matrix"),
    ("walkers 200\nparticles 800\nwalkers 300\n", "'walkers' is given twice"),
], ids=["unknown_name", "repeated_name"])
def test_run_rejects_a_sizes_file_the_matrix_does_not_match(tmp_path, capsys, lines, word):
    """A misspelt population would run at the default size, and a repeated
    one at its last line; both are refused before any output."""
    sizes, out = tmp_path / "sizes.txt", tmp_path / "out"
    sizes.write_text(lines)
    rc = run_cli(
        "run", "--rules", DATA / "rules.txt", "--matrix", DATA / "matrix_toy.txt",
        "--side", 51, "--sizes", sizes, "--steps", 2, "--target", "walkers", "--out", out,
    )
    _assert_rejected_before_output(rc, out, capsys.readouterr().err, word)


def test_run_rejects_zero_distance_before_writing(tmp_path, capsys):
    out = tmp_path / "out"
    rc = run_cli("run", *_run_args(tmp_path, out, **{"--distance": 0}))
    _assert_rejected_before_output(rc, out, capsys.readouterr().err, "--distance")


def test_run_rejects_nan_distance_before_writing(tmp_path, capsys):
    out = tmp_path / "out"
    rc = run_cli("run", *_run_args(tmp_path, out, **{"--distance": "nan"}))
    _assert_rejected_before_output(rc, out, capsys.readouterr().err, "--distance")


def test_run_rejects_nan_beta_before_writing(tmp_path, capsys):
    out = tmp_path / "out"
    rc = run_cli("run", *_run_args(tmp_path, out), "--beta", "nan")
    _assert_rejected_before_output(rc, out, capsys.readouterr().err, "beta")


def test_run_rejects_side_below_three_before_writing(tmp_path, capsys):
    out = tmp_path / "out"
    rc = run_cli("run", *_run_args(tmp_path, out, **{"--side": 2}))
    _assert_rejected_before_output(rc, out, capsys.readouterr().err, "side")


@pytest.mark.parametrize("below", [None, "out"])
def test_run_out_that_is_or_lies_under_a_file_is_one_error_line(tmp_path, capsys, below):
    blocker = tmp_path / "file"
    blocker.write_text("keep\n")
    out = blocker / below if below else blocker
    rc = run_cli("run", *_run_args(tmp_path, out))
    assert rc == 1
    assert blocker.read_text() == "keep\n"
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and str(out) in lines[0]


def test_run_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch):
    """A side too large for the report grid runs out of memory inside the
    run; the CLI reports it as one error line, not a traceback."""
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB for an array")

    monkeypatch.setattr(cli, "neighborhood_counts", no_memory)
    rc = run_cli("run", *_run_args(tmp_path, tmp_path / "out"))
    assert rc == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: out of memory")
    assert "74.5 GiB" in lines[0]


def test_run_explicit_empty_report_ticks_writes_no_report(tmp_path):
    out = tmp_path / "out"
    assert run_cli("run", *_run_args(tmp_path, out, **{"--report-ticks": ""})) == 0
    assert not list(out.glob("report_t*.csv"))
    assert json.loads((out / "run_meta.json").read_text())["report_ticks"] == []


@pytest.mark.parametrize("matrix, sizes, word", [
    ("particles walk 0 0\nparticles cooc 1 1 walkers 2\n", None, "'walkers' has no matrix entry"),
    ("walkers walk 0 0\n#x walk 0 0\n", "#x 7\n", "'#x'"),
    ("walkers walk 0 0\n_average walk 0 0\n", None, "'_average'"),
    ("walkers walk 0 0\n", "walkers 1000000000000000000000000000000\n", "2**63"),
], ids=["population_without_entry", "comment_marker_name", "average_row_name", "too_many_agents"])
def test_run_rejects_a_model_that_cannot_run_before_writing(tmp_path, capsys, matrix, sizes, word):
    """A population no entry moves fails on the first tick, one named like
    a comment would miss its sizes line, one named ``_average`` makes a
    report that ``analyze`` refuses, and a total past int64 cannot be
    placed; each is refused before the output directory is made."""
    (tmp_path / "matrix.txt").write_text(matrix)
    extra = {"--matrix": tmp_path / "matrix.txt"}
    if sizes:
        (tmp_path / "sizes.txt").write_text(sizes)
        extra["--sizes"] = tmp_path / "sizes.txt"
    out = tmp_path / "out"
    rc = run_cli("run", *_run_args(tmp_path, out, **extra))
    _assert_rejected_before_output(rc, out, capsys.readouterr().err, word)


@pytest.mark.parametrize("which", ["--rules", "--matrix", "--sizes", "edges", "report"])
def test_an_input_that_is_not_utf8_is_one_error_line_naming_it(tmp_path, capsys, which):
    bad, out = tmp_path / "bad.txt", tmp_path / "out"
    bad.write_bytes(b"\xff\xfe not utf-8\n")
    if which == "edges":
        rc = run_cli("gen-matrix", bad, "--target", "t",
                     "--rules-out", tmp_path / "r.txt", "--matrix-out", out)
        assert not (tmp_path / "r.txt").exists()
    elif which == "report":
        rc = run_cli("analyze", bad)
    else:
        rc = run_cli("run", *_run_args(tmp_path, out, **{which: bad}))
    captured = capsys.readouterr()
    assert captured.out == ""
    _assert_rejected_before_output(rc, out, captured.err, str(bad))


def test_run_report_write_failure_is_one_error_line(tmp_path, capsys, monkeypatch):
    """A report that cannot be written (a full disk, say) is one error
    line naming the report, not a traceback, although the error that
    ``write`` raises carries no file name."""
    def disk_full(report, sink):
        error = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        assert error.filename is None
        raise error

    monkeypatch.setattr(cli, "write_report_csv", disk_full)
    out = tmp_path / "out"
    rc = run_cli("run", *_run_args(tmp_path, out))
    assert rc == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"error: {out / 'report_t0.csv'}: {os.strerror(errno.ENOSPC)}"]


@pytest.mark.parametrize("name", ["snapshot_t0.ppm", "run_meta.json"])
def test_run_snapshot_and_meta_write_failures_name_the_file(tmp_path, capsys, monkeypatch, name):
    class Full(stdio.BytesIO):
        def write(self, data):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def opener(path, *args, **kwargs):
        return Full() if Path(path).name == name else open(path, *args, **kwargs)

    monkeypatch.setattr(cli, "open", opener, raising=False)
    out = tmp_path / "out"
    rc = run_cli("run", *_run_args(tmp_path, out), "--snapshots")
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {out / name}: {os.strerror(errno.ENOSPC)}"]


@pytest.mark.parametrize("steps", [0, 5])
def test_run_rejects_a_population_no_entry_applies_to_before_writing(tmp_path, capsys, steps):
    """``a`` follows ``b`` only from 6 active ``b`` agents, and ``b`` has 5:
    the first tick's selection finds no entry for ``a``, so the run is
    refused before the output directory is made, with no tick to run too."""
    (tmp_path / "matrix.txt").write_text("a cooc 1 6 b 2\nb walk 0 0\n")
    out = tmp_path / "out"
    rc = run_cli("run", *_run_args(tmp_path, out, **{
        "--matrix": tmp_path / "matrix.txt", "--size": 5, "--target": "b",
        "--steps": steps, "--report-ticks": "0"}))
    warning, *rest = capsys.readouterr().err.splitlines()
    assert warning == ("warning: matrix entry 0 (a cooc): cardinality 6 has no special "
                       "meaning beyond a count threshold")
    _assert_rejected_before_output(rc, out, "\n".join(rest), "'a' has no matrix entry that applies")


def test_run_rejects_a_population_whose_targets_can_all_freeze_out_before_writing(tmp_path, capsys):
    """``b``'s one entry follows ``a`` and applies at tick 0, but ``a`` freezes
    next to ``c``: once every ``a`` froze, no entry of ``b`` applies, and the
    run used to stop there with reports written. It is refused before any output."""
    (tmp_path / "matrix.txt").write_text("a walk 0 0\na cooc 1 1 c 2\nb cooc 1 1 a 2\nc walk 0 0\n")
    (tmp_path / "sizes.txt").write_text("a 3\nb 5\nc 300\n")
    out = tmp_path / "out"
    rc = run_cli("run", *_run_args(tmp_path, out, **{
        "--matrix": tmp_path / "matrix.txt", "--sizes": tmp_path / "sizes.txt", "--side": 21,
        "--steps": 200, "--target": "a", "--report-ticks": "0,200"}))
    warning, *rest = capsys.readouterr().err.splitlines()
    assert warning.startswith("warning: 308 agents exceed the crowding threshold")
    _assert_rejected_before_output(rc, out, "\n".join(rest), "'b' may find no entry")
    assert "add a walk entry" in rest[0]


def test_a_bug_inside_a_subcommand_keeps_its_traceback(tmp_path, monkeypatch):
    """Only refusals become error lines; any other exception propagates."""
    def broken(*args, **kwargs):
        raise TypeError("a bug")

    monkeypatch.setattr(cli, "neighborhood_counts", broken)
    with pytest.raises(TypeError, match="a bug"):
        run_cli("run", *_run_args(tmp_path, tmp_path / "out"))


def _run_options():
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {opt for action in sub.choices["run"]._actions for opt in action.option_strings}


def test_run_option_set_is_pinned(tmp_path, capsys):
    """A new `run` knob must be added here on purpose."""
    assert _run_options() == {
        "-h", "--help", "--rules", "--matrix", "--side", "--size", "--sizes",
        "--steps", "--seed", "--beta", "--report-ticks", "--target",
        "--distance", "--out", "--snapshots",
    }
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run_cli("run", *_run_args(tmp_path, out), "--workers", 2)
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err
    assert not out.exists()


def test_run_validates_the_model_once(tmp_path, validate_calls):
    """The CLI prints the model's verdict and the run refuses from the same one."""
    assert run_cli("run", *_run_args(tmp_path, tmp_path / "out")) == 0
    assert len(validate_calls) == 1


def test_run_prints_every_diagnostic_once_before_output(tmp_path, capsys):
    """Two errors and one warning: each is one line, warnings first, exit 1
    and no output directory."""
    matrix = tmp_path / "matrix.txt"
    matrix.write_text("a walk 0 0\nb walk -1 0\na nosuch 0 0\na cooc 1 2 b 2\n")
    out = tmp_path / "out"
    rc = run_cli("run", *_run_args(tmp_path, out, **{"--matrix": matrix, "--target": "b"}))
    assert rc == 1
    assert not out.exists()
    assert capsys.readouterr().err.splitlines() == [
        "warning: matrix entry 3 (a cooc): cardinality 2 has no special meaning beyond a count threshold",
        "error: matrix entry 1 (b walk): priority must be nonnegative, got -1",
        "error: matrix entry 2 (a nosuch): unknown rule 'nosuch'",
    ]


def test_run_crowding_warning_on_stderr(tmp_path, capsys):
    out = tmp_path / "out"
    rc = run_cli("run", *_run_args(tmp_path, out, **{"--size": 100}))
    assert rc == 0
    assert "240" in capsys.readouterr().err


def test_analyze_published_table(capsys):
    rc = run_cli("analyze", TEST_DATA / "report_small_set_t1000.csv", "--factor", 2)
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["particles 55", "ab_initio_calculations 45"]


def test_analyze_high_factor_prints_nothing(capsys):
    rc = run_cli("analyze", TEST_DATA / "report_small_set_t1000.csv", "--factor", 100)
    assert rc == 0
    assert capsys.readouterr().out == ""


def test_analyze_flags_no_zero_count_against_an_average_that_rounds_to_zero(tmp_path, capsys):
    """One count of 1 among 25 populations averages 0.04, written as 0.0: the
    count of 1 stands out, the 24 counts of 0 do not."""
    counts = {"a": 1, **{f"p{k:02d}": 0 for k in range(1, 25)}}
    report = NeighborhoodReport("t", 2.0, 0, counts, sum(counts.values()) / len(counts))
    path = tmp_path / "report.csv"
    with path.open("wb") as sink:
        write_report_csv(report, sink)
    assert path.read_text().endswith("_average,0.0\n")
    rc = run_cli("analyze", path, "--factor", 2)
    assert rc == 0
    assert capsys.readouterr().out.splitlines() == ["a 1"]


def test_analyze_judges_counts_against_their_mean_not_the_rounded_average(tmp_path, capsys):
    """Eleven counts averaging 28 / 11 = 2.545 are written ``_average,2.5``:
    against the rounded line, 5 would reach twice the average; against the
    mean it does not, so ``analyze`` prints nothing, as
    ``significant_populations`` returns nothing."""
    counts = dict(a=5, i=4, j=4, k=4, b=2, d=2, e=2, h=2, c=1, f=1, g=1)
    report = NeighborhoodReport("t", 2.0, 0, counts, sum(counts.values()) / len(counts))
    path = tmp_path / "report.csv"
    with path.open("wb") as sink:
        write_report_csv(report, sink)
    assert path.read_text().endswith("_average,2.5\n")
    assert significant_populations(report, 2.0) == []
    rc = run_cli("analyze", path, "--factor", 2)
    assert rc == 0
    assert capsys.readouterr().out == ""


def test_analyze_rejects_malformed_header(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("name;count\n")
    rc = run_cli("analyze", bad)
    assert rc == 1
    assert "population,count" in capsys.readouterr().err


@pytest.mark.parametrize("factor", ["0", "-1", "nan", "inf"])
def test_analyze_rejects_a_factor_that_is_not_finite_and_positive(capsys, factor):
    rc = run_cli("analyze", TEST_DATA / "report_small_set_t1000.csv", "--factor", factor)
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "factor" in lines[0]


def test_gen_matrix_restricted_star(tmp_path, capsys):
    edges = tmp_path / "edges.txt"
    edges.write_text("t a\nt b\n")
    rules_out = tmp_path / "rules.txt"
    matrix_out = tmp_path / "matrix.txt"
    rc = run_cli("gen-matrix", edges, "--target", "t",
                 "--rules-out", rules_out, "--matrix-out", matrix_out)
    assert rc == 0
    assert capsys.readouterr().out == "populations: 3\nrelations: 2\n"
    matrix_lines = [l for l in matrix_out.read_text().splitlines() if not l.startswith(";")]
    assert len(matrix_lines) == 5  # 3 walks + 2 relations
    assert "interaction cooc" in rules_out.read_text()


def test_gen_matrix_extended_two_hops(tmp_path, capsys):
    edges = tmp_path / "edges.txt"
    edges.write_text("t a\na b\n")
    rc = run_cli("gen-matrix", edges, "--target", "t", "--kind", "extended",
                 "--rules-out", tmp_path / "r.txt", "--matrix-out", tmp_path / "m.txt")
    assert rc == 0
    assert capsys.readouterr().out == "populations: 3\nrelations: 2\n"


def test_gen_matrix_unknown_target(tmp_path, capsys):
    edges = tmp_path / "edges.txt"
    edges.write_text("a b\n")
    rc = run_cli("gen-matrix", edges, "--target", "zzz",
                 "--rules-out", tmp_path / "r.txt", "--matrix-out", tmp_path / "m.txt")
    assert rc == 1
    assert "zzz" in capsys.readouterr().err


def test_gen_matrix_refuses_a_name_read_back_as_a_comment_before_writing(tmp_path, capsys):
    """``;x`` would be written as a matrix comment and silently drop out."""
    edges = tmp_path / "edges.txt"
    edges.write_text("tor ;x\ntor abc\n")
    rules_out, matrix_out = tmp_path / "r.txt", tmp_path / "m.txt"
    rc = run_cli("gen-matrix", edges, "--target", "tor",
                 "--rules-out", rules_out, "--matrix-out", matrix_out)
    captured = capsys.readouterr()
    assert not rules_out.exists() and captured.out == ""
    _assert_rejected_before_output(rc, matrix_out, captured.err, "';x'")


def test_gen_matrix_unwritable_output_is_one_error_line(tmp_path, capsys):
    edges = tmp_path / "edges.txt"
    edges.write_text("t a\n")
    rules_out = tmp_path / "missing" / "r.txt"
    rc = run_cli("gen-matrix", edges, "--target", "t",
                 "--rules-out", rules_out, "--matrix-out", tmp_path / "m.txt")
    assert rc == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and str(rules_out) in lines[0]


@pytest.mark.parametrize("outs, word", [
    (("r.txt", "nodir/m.txt"), "existing directory"),
    (("r.txt", "."), "existing directory"),
    (("m.txt", "m.txt"), "three different files"),
    (("edges.txt", "m.txt"), "three different files"),
    (("r.txt", "./edges.txt"), "three different files"),
], ids=["missing_matrix_dir", "matrix_is_a_dir", "same_output", "rules_over_edges",
        "matrix_over_edges"])
def test_gen_matrix_refuses_outputs_before_writing_either(tmp_path, capsys, monkeypatch, outs,
                                                          word):
    """A missing matrix directory, or a directory as the matrix, once left the rules file
    behind, and one path for both outputs, or the edge list's own, was written over with
    exit code 0."""
    edges = tmp_path / "edges.txt"
    edges.write_text("t a\n")
    monkeypatch.chdir(tmp_path)
    rc = run_cli("gen-matrix", edges, "--target", "t", "--rules-out", outs[0],
                 "--matrix-out", outs[1])
    assert rc == 1 and edges.read_text() == "t a\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["edges.txt"]
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and word in lines[0]


@pytest.mark.parametrize("distance", ["-1", "0", "nan", "inf"])
def test_gen_matrix_rejects_distance_before_writing(tmp_path, capsys, distance):
    edges = tmp_path / "edges.txt"
    edges.write_text("t a\n")
    rules_out, matrix_out = tmp_path / "r.txt", tmp_path / "m.txt"
    rc = run_cli("gen-matrix", edges, "--target", "t", "--distance", distance,
                 "--rules-out", rules_out, "--matrix-out", matrix_out)
    assert not rules_out.exists()
    _assert_rejected_before_output(rc, matrix_out, capsys.readouterr().err, "distance")


@pytest.mark.parametrize("distance", ["inf", "nan", "0"])
def test_run_rejects_matrix_distance_before_writing(tmp_path, capsys, distance):
    matrix = tmp_path / "matrix.txt"
    matrix.write_text(f"a walk 0 0\nb walk 0 0\na cooc 1 1 b {distance}\n")
    out = tmp_path / "out"
    rc = run_cli("run", *_run_args(tmp_path, out, **{"--matrix": matrix, "--target": "b"}))
    _assert_rejected_before_output(rc, out, capsys.readouterr().err, "distance")


def test_gen_matrix_output_feeds_run(tmp_path):
    edges = tmp_path / "edges.txt"
    edges.write_text("t a\nt b\na b\n")
    rules_out = tmp_path / "rules.txt"
    matrix_out = tmp_path / "matrix.txt"
    assert run_cli("gen-matrix", edges, "--target", "t", "--kind", "extended",
                   "--rules-out", rules_out, "--matrix-out", matrix_out) == 0
    out = tmp_path / "out"
    rc = run_cli("run", "--rules", rules_out, "--matrix", matrix_out,
                 "--side", 15, "--size", 10, "--steps", 3, "--report-ticks", "3",
                 "--target", "t", "--out", out)
    assert rc == 0
    assert (out / "report_t3.csv").exists()
