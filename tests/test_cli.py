"""Integration tests for the command-line interface."""

import pytest

from repro.cli import main


def test_generate_and_run_and_match(tmp_path, capsys):
    stream_csv = tmp_path / "stream.csv"
    archive = tmp_path / "history.sgsa"

    assert main(
        [
            "generate",
            "--kind",
            "blobs",
            "--count",
            "1500",
            "--seed",
            "1",
            "--out",
            str(stream_csv),
        ]
    ) == 0
    assert stream_csv.exists()
    assert "wrote 1500 records" in capsys.readouterr().out

    assert main(
        [
            "run",
            "--input",
            str(stream_csv),
            "--theta-range",
            "0.3",
            "--theta-count",
            "5",
            "--win",
            "500",
            "--slide",
            "250",
            "--archive",
            str(archive),
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "window 0" in out
    assert "persisted pattern base" in out
    assert archive.exists()

    assert main(
        [
            "match",
            "--archive",
            str(archive),
            "--pattern",
            "0",
            "--threshold",
            "0.4",
            "--top",
            "3",
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "matches" in out


def test_show_ascii_and_json(tmp_path, capsys):
    stream_csv = tmp_path / "stream.csv"
    archive = tmp_path / "history.sgsa"
    main(["generate", "--count", "1200", "--out", str(stream_csv)])
    main(
        [
            "run", "--input", str(stream_csv), "--theta-range", "0.3",
            "--theta-count", "5", "--win", "400", "--slide", "200",
            "--archive", str(archive),
        ]
    )
    capsys.readouterr()
    assert main(["show", "--archive", str(archive), "--pattern", "0"]) == 0
    art = capsys.readouterr().out
    assert "cells" in art and "┌" in art
    assert (
        main(["show", "--archive", str(archive), "--pattern", "0", "--json"])
        == 0
    )
    json_out = capsys.readouterr().out
    assert '"cells"' in json_out


def test_match_missing_pattern_errors(tmp_path, capsys):
    stream_csv = tmp_path / "stream.csv"
    archive = tmp_path / "history.sgsa"
    main(["generate", "--count", "1200", "--out", str(stream_csv)])
    main(
        [
            "run", "--input", str(stream_csv), "--theta-range", "0.3",
            "--theta-count", "5", "--win", "400", "--slide", "200",
            "--archive", str(archive),
        ]
    )
    capsys.readouterr()
    assert (
        main(["match", "--archive", str(archive), "--pattern", "99999"]) == 1
    )
    assert "no pattern" in capsys.readouterr().err


def test_run_time_based(tmp_path, capsys):
    stream_csv = tmp_path / "stream.csv"
    main(["generate", "--count", "1000", "--out", str(stream_csv)])
    capsys.readouterr()
    # Arrival-order timestamps: 1000 tuples = 1000 time units.
    assert main(
        [
            "run", "--input", str(stream_csv), "--theta-range", "0.3",
            "--theta-count", "5", "--win", "400", "--slide", "200",
            "--time-based",
        ]
    ) == 0
    assert "window" in capsys.readouterr().out


def test_run_empty_input(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(
        [
            "run", "--input", str(empty), "--theta-range", "0.3",
            "--theta-count", "5", "--win", "400", "--slide", "200",
        ]
    ) == 1
    assert "empty" in capsys.readouterr().err


def test_match_plan_stats_and_engine_options(tmp_path, capsys):
    stream_csv = tmp_path / "stream.csv"
    archive = tmp_path / "history.sgsa"
    main(["generate", "--count", "1500", "--seed", "2", "--out",
          str(stream_csv)])
    main(
        [
            "run", "--input", str(stream_csv), "--theta-range", "0.3",
            "--theta-count", "5", "--win", "500", "--slide", "250",
            "--archive", str(archive),
        ]
    )
    capsys.readouterr()
    assert main(
        [
            "match", "--archive", str(archive), "--pattern", "0",
            "--threshold", "0.3", "--top", "3",
            "--coarse-level", "1", "--windows", "0:2",
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "plan entry=" in out
    assert "refined=" in out
    # The window constraint restricts every reported match.
    for line in out.splitlines():
        if line.startswith("#"):
            window = int(line.split("(window ")[1].split(")")[0])
            assert 0 <= window <= 2


def test_match_rejects_bad_window_span(tmp_path):
    stream_csv = tmp_path / "stream.csv"
    archive = tmp_path / "history.sgsa"
    main(["generate", "--count", "1200", "--out", str(stream_csv)])
    main(
        [
            "run", "--input", str(stream_csv), "--theta-range", "0.3",
            "--theta-count", "5", "--win", "400", "--slide", "200",
            "--archive", str(archive),
        ]
    )
    with pytest.raises(SystemExit):
        main(
            [
                "match", "--archive", str(archive), "--pattern", "0",
                "--windows", "nonsense",
            ]
        )


def test_match_reports_invalid_query_cleanly(tmp_path, capsys):
    """Semantically invalid engine options (inverted span, negative
    coarse level) exit with an error message, not a traceback."""
    stream_csv = tmp_path / "stream.csv"
    archive = tmp_path / "history.sgsa"
    main(["generate", "--count", "1200", "--out", str(stream_csv)])
    main(
        [
            "run", "--input", str(stream_csv), "--theta-range", "0.3",
            "--theta-count", "5", "--win", "400", "--slide", "200",
            "--archive", str(archive),
        ]
    )
    capsys.readouterr()
    assert main(
        [
            "match", "--archive", str(archive), "--pattern", "0",
            "--windows", "9:3",
        ]
    ) == 1
    assert "invalid matching query" in capsys.readouterr().err
    assert main(
        [
            "match", "--archive", str(archive), "--pattern", "0",
            "--coarse-level", "-1",
        ]
    ) == 1
    assert "invalid matching query" in capsys.readouterr().err


def test_run_persists_inverted_index_that_match_reuses(tmp_path, capsys):
    """`run --inverted-levels` persists a v3 archive whose index
    `match` screens with instead of rebuilding it."""
    stream_csv = tmp_path / "stream.csv"
    archive = tmp_path / "history.sgsa"
    main(["generate", "--count", "1500", "--seed", "4", "--out",
          str(stream_csv)])
    assert main(
        [
            "run", "--input", str(stream_csv), "--theta-range", "0.3",
            "--theta-count", "5", "--win", "500", "--slide", "250",
            "--archive", str(archive), "--inverted-levels", "1",
        ]
    ) == 0
    capsys.readouterr()

    from repro.archive.persistence import load_pattern_base

    index = load_pattern_base(str(archive)).inverted_index()
    assert index is not None and index.levels == (1,)

    assert main(
        [
            "match", "--archive", str(archive), "--pattern", "0",
            "--threshold", "0.6", "--top", "5", "--coarse-level", "1",
            "--inverted-levels", "1",
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "coarse_screen=inverted" in out
    assert any(line.startswith("#1: pattern") for line in out.splitlines())


@pytest.mark.parametrize(
    "theta_range, win, slide",
    [("0.3", "120.7", "40"), ("0.3", "121.5", "40.5"), ("-1", "120", "40")],
)
def test_run_refuses_an_invalid_query_cleanly(
    tmp_path, capsys, theta_range, win, slide
):
    """Regression pin: `run --win 120.7 --slide 40` ran as win 120,
    truncated by ``int()``, and a negative θr ended in a traceback. An
    invalid query is refused, with a message, before any window runs."""
    stream_csv = tmp_path / "stream.csv"
    main(["generate", "--count", "300", "--out", str(stream_csv)])
    capsys.readouterr()
    assert main(
        [
            "run", "--input", str(stream_csv), "--theta-range", theta_range,
            "--theta-count", "5", "--win", win, "--slide", slide,
        ]
    ) == 1
    captured = capsys.readouterr()
    assert "invalid query" in captured.err
    assert "window 0" not in captured.out


def test_one_shot_match_hydrates_only_what_it_refines(
    tmp_path, capsys, monkeypatch
):
    """`repro match` answers one query and exits, so it builds coarse
    rungs lazily, for candidates only: on a disk-backed archive whose
    every pattern carries a ladder hint, it parses no stored summary it
    does not refine."""
    import repro.cli as cli
    from repro.archive.pattern_base import PatternBase
    from repro.retrieval import MatchEngine

    stream_csv = tmp_path / "stream.csv"
    spec = f"sqlite:{tmp_path / 'history.db'}"
    main(["generate", "--count", "1500", "--seed", "5", "--out",
          str(stream_csv)])
    assert main(
        [
            "run", "--input", str(stream_csv), "--theta-range", "0.3",
            "--theta-count", "5", "--win", "500", "--slide", "250",
            "--store", spec,
        ]
    ) == 0
    with PatternBase(store=spec) as base:
        engine = MatchEngine(base)
        for pattern in base.all_patterns():
            engine.pattern_at_level(pattern, 1)
    with PatternBase(store=spec) as base:
        hinted = sum(1 for p in base.all_patterns() if p.ladder_hint)
        assert hinted == len(base) > 0
    capsys.readouterr()

    opened = []
    open_base = cli._open_base
    monkeypatch.setattr(
        cli,
        "_open_base",
        lambda args: opened.append(open_base(args)) or opened[0],
    )
    assert main(
        ["match", "--store", spec, "--pattern", "0", "--threshold", "0.2"]
    ) == 0
    out = capsys.readouterr().out
    refined = int(out.split("refined=")[1].split()[0])
    assert 0 < refined < hinted
    assert opened[0].store.stats["hydrations"] <= refined


def test_bad_inverted_levels_rejected(tmp_path, capsys):
    stream_csv = tmp_path / "stream.csv"
    main(["generate", "--count", "800", "--out", str(stream_csv)])
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(
            [
                "run", "--input", str(stream_csv), "--theta-range", "0.3",
                "--theta-count", "5", "--win", "400", "--slide", "200",
                "--inverted-levels", "zero",
            ]
        )
    with pytest.raises(SystemExit):
        main(
            [
                "run", "--input", str(stream_csv), "--theta-range", "0.3",
                "--theta-count", "5", "--win", "400", "--slide", "200",
                "--inverted-levels", "0",
            ]
        )


def test_inverted_levels_noop_without_coarse_level(tmp_path, capsys):
    """`match --inverted-levels` without a coarse entry level skips the
    archive-wide rebuild and says so, instead of silently doing work
    the query can never use."""
    stream_csv = tmp_path / "stream.csv"
    archive = tmp_path / "history.sgsa"
    main(["generate", "--count", "1200", "--seed", "6", "--out",
          str(stream_csv)])
    main(
        [
            "run", "--input", str(stream_csv), "--theta-range", "0.3",
            "--theta-count", "5", "--win", "400", "--slide", "200",
            "--archive", str(archive),
        ]
    )
    capsys.readouterr()
    assert main(
        [
            "match", "--archive", str(archive), "--pattern", "0",
            "--threshold", "0.4", "--inverted-levels", "1",
        ]
    ) == 0
    captured = capsys.readouterr()
    assert "has no effect without" in captured.err
    assert "matches" in captured.out


@pytest.mark.parametrize(
    "argv",
    (
        [
            "run", "--input", "s.csv", "--theta-range", "0.3",
            "--theta-count", "5", "--win", "400", "--slide", "200",
            "--refine", "scalar",
        ],
        ["multiplex", "--input", "s.csv", "--queries", "q.txt", "--ab"],
        ["serve", "--archive", "h.sgsa", "--mode", "thread"],
        ["match", "--archive", "h.sgsa", "--pattern", "0", "--shards", "2"],
        [
            "run", "--input", "s.csv", "--theta-range", "0.3",
            "--theta-count", "5", "--win", "400", "--slide", "200",
            "--index-backend", "auto",
        ],
        [
            "run", "--input", "s.csv", "--theta-range", "0.3",
            "--theta-count", "5", "--win", "400", "--slide", "200",
            "--index-backend", "rtree",
        ],
    ),
    ids=(
        "run--refine", "multiplex--ab", "serve--mode-thread",
        "match--shards",
        "run--index-backend-auto", "run--index-backend-rtree",
    ),
)
def test_retired_path_switches_are_usage_errors(argv, capsys):
    """The kernel arm, forced-dedicated multiplexing, the thread mode,
    the adaptive and R-tree neighbour backends and sharding outside
    `repro serve` are no longer user-set: argparse rejects them before
    any file is opened."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "usage:" in capsys.readouterr().err
