"""Benchmark driver: result shape, size accounting, degenerate runs."""

import time

import pytest

from msectun import bench
from msectun.bench import BenchResult, TableResult, results_csv, run_bench, run_bench_cell
from msectun.gateway import Scheme


def test_zero_duration_gives_empty_results():
    assert run_bench([Scheme.NAIVE], [64], seconds=0) == []


def test_cell_measures_and_accounts():
    r = run_bench_cell(Scheme.IDF, 256, seconds=0.1)
    assert r.frames > 0
    assert r.wire_size == 256 - 18 + 8
    assert r.overhead_bytes == -10
    assert r.hash_per_frame == 2.0  # one uplink, one downlink refill
    assert r.p50_us > 0 and r.p99_us >= r.p50_us
    assert abs(r.mbit_per_sec - r.frames_per_sec * r.wire_size * 8 / 1e6) < 1e-6


def test_frame_generation_is_not_timed(monkeypatch):
    """``seconds`` counts engine work, not the sealing of test frames."""
    real = bench._protect_series

    def slow_series(*args):
        time.sleep(0.005)
        return real(*args)

    monkeypatch.setattr(bench, "_protect_series", slow_series)
    t0 = time.perf_counter()
    r = run_bench_cell(Scheme.NAIVE, 64, seconds=0.2)
    wall = time.perf_counter() - t0
    assert 0 < r.seconds < wall / 2
    assert abs(r.frames_per_sec - r.frames / r.seconds) < 1e-6


def test_wire_sizes_follow_scheme_layouts():
    for size in (64, 200):
        naive = run_bench_cell(Scheme.NAIVE, size, 0.05)
        idf = run_bench_cell(Scheme.IDF, size, 0.05)
        enc = run_bench_cell(Scheme.ENC, size, 0.05)
        full = run_bench_cell(Scheme.FULLENC, size, 0.05)
        assert naive.wire_size == size + 8
        assert idf.wire_size == size - 18 + 8
        assert enc.wire_size == size + 1 + 8
        assert full.wire_size == size + 13 + 16 + 8
        assert idf.wire_size < enc.wire_size


def test_enc_block_ops_exact():
    r = run_bench_cell(Scheme.ENC, 128, 0.1)
    assert r.blocks_per_frame == 4.0  # two per direction


def test_fullenc_block_ops_scale_with_size():
    r = run_bench_cell(Scheme.FULLENC, 512, 0.05)
    assert r.blocks_per_frame >= 512 / 16


def test_csv_output_shape():
    rows = run_bench([Scheme.NAIVE, Scheme.IDF], [64], seconds=0.1)
    csv = results_csv(rows)
    lines = csv.strip().splitlines()
    assert lines[0] == BenchResult.CSV_COLUMNS
    assert len(lines) == 3
    assert all(len(l.split(",")) == 12 for l in lines)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--sizes", "10"], "error: --sizes:"),
        (["--schemes", "fullenc", "--sizes", "1450"], "error: --sizes:"),
        (["--schemes", "foo"], "error: --schemes: 'foo'"),
        (["--schemes", ","], "error: --schemes: no scheme given"),
        (["--window", "0"], "error: --window: window size must be >= 1"),
        (["--table-flows", "1,0"], "error: --table-flows: flow counts must be integers >= 1"),
        (["--table-flows", "1k"], "error: --table-flows: invalid literal"),
    ],
    ids=["below-min-size", "too-large-for-scheme", "unknown-scheme", "no-scheme", "no-window",
         "no-table-flows", "bad-table-flows"],
)
def test_unusable_sizes_are_usage_errors(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        bench.main(argv + ["--secs", "0.05"])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_unusable_size_fails_before_timing(capsys):
    """Every cell is warmed up before any is timed, so a size one scheme
    cannot carry ends the run at once, with no partial table."""
    t0 = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        bench.main(["--schemes", "naive,fullenc", "--sizes", "50,1449", "--secs", "6"])
    wall = time.perf_counter() - t0
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "error: --sizes: fullenc delivers no 1449-byte frame" in err
    assert wall < 3


def test_table_sweep_reports_each_flow_count(capsys):
    assert bench.main(["--table-flows", "3,1", "--window", "8"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == TableResult.CSV_COLUMNS
    rows = [line.split(",") for line in lines[1:]]
    # ascending flow counts, one identifier per window PN of each flow
    assert [(r[0], r[1]) for r in rows] == [("1", "8"), ("3", "24")]
    assert all(float(r[2]) > 0 and float(r[3]) > 0 and r[4] == "" for r in rows)


def test_table_sweep_skips_a_count_that_does_not_fit(monkeypatch):
    monkeypatch.setattr(bench, "_available_bytes", lambda: 1 << 20)
    small, large = bench.run_table_sweep([1, 1000], window=8)
    assert small.identifiers == 8 and not small.skipped
    assert large.identifiers == 0 and large.skipped.startswith("needs about")
    assert large.csv_row() == f"1000,,,,{large.skipped}"
