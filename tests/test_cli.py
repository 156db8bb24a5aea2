import hashlib
import json

import pytest

from bhbasis import cli, harness, ratio_bounds
from bhbasis.cli import main


def test_sample_stdout(capsys):
    assert main(["sample", "--h", "2", "--n", "200", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    d = json.loads(out)
    assert set(d) == {"h", "N", "seed", "elements"}
    assert d["N"] == 200 and d["elements"][0] == 1
    # the sample JSON bytes: sorted keys, 2-space indent, trailing newline
    assert out == json.dumps(d, sort_keys=True, indent=2) + "\n"


def test_sample_to_dir(tmp_path, capsys):
    assert main(["sample", "--h", "2", "--n", "100", "--seed", "3", "--out", str(tmp_path)]) == 0
    path = capsys.readouterr().out.strip()
    assert json.loads(open(path).read())["seed"] == 3


def test_construct_and_series(tmp_path, capsys):
    rc = main(
        [
            "construct",
            "--h", "2", "--n", "2000", "--seed", "11",
            "--window", "100:2000",
            "--out", str(tmp_path),
            "--series",
        ]
    )
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    rec = json.loads(open(lines[0]).read())
    assert rec["bh1"]["ok"] is True
    series = open(lines[1]).read().splitlines()
    assert series[0] == "n,count_b,count_a"
    assert len(series) == 1 + (2000 - 100 + 1)


def test_series_needs_out(capsys):
    # without --out there is nowhere to write the series: a usage error,
    # raised before any sampling
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--h", "2", "--n", "2000", "--seed", "11", "--series"])
    assert exc.value.code == 2
    assert "--series needs --out" in capsys.readouterr().err


def test_sweep_csv_needs_out(monkeypatch, capsys):
    # without --out the CSV has nowhere to go: a usage error before any sampling
    monkeypatch.setattr(harness, "sample_set", _no_work)
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--h", "2", "--n", "2000", "--seeds", "1,2", "--format", "csv"])
    assert exc.value.code == 2
    assert "--format csv needs --out" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, name, digest",
    [
        (
            ["construct", "--h", "2", "--n", "20000", "--seed", "1", "--series"],
            "series_h2_n20000_s1.csv",
            "0f3bcb8a94e28d2901b137fd3e6bab0ebfb4a3d5a8e6ed36f65afd722875f91b",
        ),
        (
            ["sweep", "--h", "2", "--n", "20000", "--seeds", "1,2,3", "--format", "csv"],
            "records.csv",
            "482b126c9224a934a2f7aaeca31f1d57b5ba2a27c15cd93ddb0699267320071b",
        ),
    ],
)
def test_csv_bytes_pinned(argv, name, digest, tmp_path, capsys):
    # the bytes of the series CSV and of records.csv, as written before the
    # CLI's one CSV writer replaced the per-module writers
    main([*argv, "--out", str(tmp_path)])
    assert str(tmp_path / name) in capsys.readouterr().out.splitlines()
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


def test_verify_pass(capsys):
    assert main(["verify", "--h", "2", "--n", "1500", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "PASS bh1_ok" in out and "FAIL" not in out


def test_sweep_report(tmp_path):
    rc = main(
        [
            "sweep",
            "--h", "2", "--n", "1200", "--seeds", "1,2,3",
            "--out", str(tmp_path),
            "--format", "csv",
        ]
    )
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["aggregate"]["all_bh1_ok"] is True
    assert len((tmp_path / "records.csv").read_text().splitlines()) == 4


def test_lemma4_subcommand(tmp_path, capsys):
    rc = main(["lemma4", "--part", "iii", "--h", "2", "--l", "4", "--mmax", "2000", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "sup_ratio=" in out
    lines = (tmp_path / "ratio_iii.csv").read_text().splitlines()
    assert lines[0] == "M,lhs,rhs,ratio"


def test_lemma4_part_iv(capsys):
    rc = main(["lemma4", "--part", "iv", "--h", "2", "--s", "1", "--t", "2", "--mmax", "500"])
    assert rc == 0
    assert "sup_ratio=" in capsys.readouterr().out


_GRID = ratio_bounds.geometric_grid(1, 60, include=(100,))
_SIGNED = [-m for m in _GRID] + _GRID


_LEMMA4_CASES = {
    "i": (["--alpha", "0.6", "--beta", "0.7"], lambda **kw: ratio_bounds.split_sum_curve(0.6, 0.7, 60)),
    "ii": (
        ["--alpha", "0.6", "--beta", "0.7"],
        lambda **kw: ratio_bounds.shifted_tail_curve(0.6, 0.7, -60, 60, grid=_SIGNED, **kw),
    ),
    "iii": (["--h", "2", "--l", "2"], lambda **kw: ratio_bounds.composition_curve(2, 2, 60)),
    "iv": (
        ["--h", "2", "--s", "1", "--t", "2"],
        lambda **kw: ratio_bounds.signed_composition_curve(1, 2, 2, _SIGNED, **kw),
    ),
}


@pytest.mark.parametrize("tail_eps", [None, "0.02"])
@pytest.mark.parametrize("part", sorted(_LEMMA4_CASES))
def test_lemma4_csv_matches_direct_call(part, tail_eps, tmp_path):
    # each part's CSV is the direct curve call's; --tail-eps reaches ii and
    # iv, and the parts without a tail refuse it
    flags, direct = _LEMMA4_CASES[part]
    extra = [] if tail_eps is None else ["--tail-eps", tail_eps]
    argv = ["lemma4", "--part", part, *flags, "--mmax", "60", *extra, "--out", str(tmp_path / "cli")]
    if tail_eps is not None and part in ("i", "iii"):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        return
    assert main(argv) == 0
    kwargs = {} if tail_eps is None else {"tail_eps": float(tail_eps)}
    curve = direct(**kwargs)
    # the rule of the former RatioCurve.to_csv: repr of each .tolist() value
    columns = [curve.m, curve.lhs, curve.rhs, curve.ratio] + ([] if curve.tail_err is None else [curve.tail_err])
    header = "M,lhs,rhs,ratio" + ("" if curve.tail_err is None else ",tail_err")
    rows = [",".join(map(repr, row)) for row in zip(*(col.tolist() for col in columns))]
    cli_bytes = (tmp_path / "cli" / f"ratio_{part}.csv").read_bytes()
    assert cli_bytes == (header + "\n" + "\n".join(rows) + "\n").encode()


@pytest.mark.parametrize(
    "part, flags",
    [
        ("ii", ["--alpha", "0.7", "--beta", "0.8"]),
        ("iv", ["--h", "2", "--s", "1", "--t", "2"]),
    ],
)
def test_lemma4_grid_choice(part, flags, capsys):
    counts = {}
    for grid in ("full", "geometric"):
        assert main(["lemma4", "--part", part, *flags, "--mmax", "300", "--grid", grid]) == 0
        counts[grid] = int(capsys.readouterr().out.split()[0].removeprefix("points="))
    assert counts["full"] == 601
    assert counts["geometric"] < counts["full"]


@pytest.mark.parametrize(
    "part, flags, missing",
    [
        ("i", ["--alpha", "0.7"], "--beta"),
        ("ii", [], "--alpha --beta"),
        ("iii", ["--h", "2"], "--l"),
        ("iv", ["--s", "1"], "--h --t"),
    ],
)
def test_lemma4_missing_part_flags(part, flags, missing, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lemma4", "--part", part, *flags, "--mmax", "300"])
    assert exc.value.code == 2
    assert f"--part {part} needs {missing}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "part, flags, unread",
    [
        ("i", ["--alpha", "0.6", "--beta", "0.7", "--tail-eps", "0.02", "--grid", "full"], "--tail-eps --grid"),
        ("ii", ["--alpha", "0.6", "--beta", "0.7", "--h", "2"], "--h"),
        ("iii", ["--h", "2", "--l", "2", "--alpha", "0.3"], "--alpha"),
        ("iii", ["--h", "2", "--l", "2", "--grid", "geometric"], "--grid"),
        ("iv", ["--h", "2", "--s", "1", "--t", "2", "--beta", "0.7", "--l", "2"], "--beta --l"),
    ],
)
def test_lemma4_refuses_flags_the_part_does_not_read(part, flags, unread, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lemma4", "--part", part, *flags, "--mmax", "60"])
    assert exc.value.code == 2
    assert f"--part {part} does not read {unread}" in capsys.readouterr().err


@pytest.mark.parametrize("part", ["iii", "iv"])
def test_lemma4_csv_cells_are_plain_floats(part, tmp_path):
    # every cell reads back with float() as exactly the curve's value
    flags, direct = _LEMMA4_CASES[part]
    assert main(["lemma4", "--part", part, *flags, "--mmax", "60", "--out", str(tmp_path)]) == 0
    curve = direct()
    header, *rows = (tmp_path / f"ratio_{part}.csv").read_text().splitlines()
    columns = {"M": curve.m, "lhs": curve.lhs, "rhs": curve.rhs, "ratio": curve.ratio, "tail_err": curve.tail_err}
    names = header.split(",")
    assert len(rows) == curve.m.size
    for i, row in enumerate(rows):
        for name, cell in zip(names, row.split(","), strict=True):
            assert float(cell) == columns[name][i], (name, i, cell)


def _no_work(*args, **kwargs):
    raise AssertionError("sampled or built a curve or grid before the flags were checked")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["lemma568", "--h", "2", "--n-list", "1e4", "--seed", "1"], "--n-list"),
        (["lemma568", "--h", "2", "--n-list", "0,400", "--n-lo", "1", "--seed", "1"], "--n-list"),
        (["lemma568", "--h", "1", "--n-list", "400", "--seed", "1"], "--h"),
        (["lemma568", "--h", "2", "--n-list", "400,800", "--n-lo", "900", "--seed", "1"], "--n-lo"),
        (["lemma4", "--part", "i", "--alpha", "0.6", "--beta", "0.7", "--mmax", "1"], "--mmax"),
        (["lemma4", "--part", "ii", "--alpha", "0.6", "--beta", "0.7", "--mmax", "0"], "--mmax"),
        (["lemma4", "--part", "iii", "--h", "2", "--l", "2", "--mmax", "1"], "--mmax"),
        (["lemma4", "--part", "iii", "--h", "2", "--l", "1", "--mmax", "0"], "--mmax"),
        (["lemma4", "--part", "iii", "--h", "2", "--l", "5"], "--l"),
        (["lemma4", "--part", "iv", "--h", "1", "--s", "1", "--t", "2"], "--h"),
        (["lemma4", "--part", "i", "--alpha", "1.5", "--beta", "0.6"], "--alpha"),
        (["lemma4", "--part", "i", "--alpha", "0.6", "--beta", "0"], "--beta"),
        (["lemma4", "--part", "ii", "--alpha", "0.6", "--beta", "1"], "--beta"),
        (["lemma4", "--part", "ii", "--alpha", "-0.2", "--beta", "0.9"], "--alpha"),
        (["lemma4", "--part", "ii", "--alpha", "0.2", "--beta", "0.3"], "--alpha + --beta"),
        (["lemma4", "--part", "ii", "--alpha", "0.5", "--beta", "0.5"], "--alpha + --beta"),
        (["lemma4", "--part", "iv", "--h", "2", "--s", "3", "--t", "2"], "--s"),
        (["lemma4", "--part", "iv", "--h", "2", "--s", "-1", "--t", "2"], "--s"),
        (["lemma4", "--part", "iv", "--h", "2", "--s", "0", "--t", "5"], "--t"),
        (["lemma4", "--part", "iv", "--h", "2", "--s", "0", "--t", "0"], "--t"),
        (["lemma4", "--part", "iv", "--h", "2", "--s", "1", "--t", "4"], "--t"),
        (["lemma4", "--part", "iv", "--h", "3", "--s", "2", "--t", "6"], "--t"),
        (["lemma4", "--part", "iv", "--h", "2", "--s", "0", "--t", "4", "--mmax", "3"], "--mmax"),
        (["lemma4", "--part", "iv", "--h", "2", "--s", "3", "--t", "3", "--mmax", "2"], "--mmax"),
        (["lemma4", "--part", "iv", "--h", "2", "--s", "1", "--t", "3", "--mmax", "300000"], "--mmax"),
        (["lemma4", "--part", "iv", "--h", "3", "--s", "2", "--t", "4", "--mmax", "262145"], "--mmax"),
        (["lemma4", "--part", "iv", "--h", "2", "--s", "1", "--t", "3", "--mmax", "10", "--tail-eps", "-1"], "--tail-eps"),
        (["lemma4", "--part", "iv", "--h", "2", "--s", "1", "--t", "3", "--tail-eps", "0"], "--tail-eps"),
        (["lemma4", "--part", "ii", "--alpha", "0.6", "--beta", "0.7", "--mmax", "10", "--tail-eps", "0"], "--tail-eps"),
        (["lemma4", "--part", "ii", "--alpha", "0.6", "--beta", "0.7", "--tail-eps", "nan"], "--tail-eps"),
    ],
)
def test_lemma_flags_out_of_range_are_usage_errors(argv, flag, monkeypatch, capsys):
    # exit 2 naming the flag, before any sampling, grid or curve work
    monkeypatch.setattr(harness, "sample_set", _no_work)
    for name in ("geometric_grid", "split_sum_curve", "shifted_tail_curve", "composition_curve", "signed_composition_curve"):
        monkeypatch.setattr(ratio_bounds, name, _no_work)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"error: {flag} must" in capsys.readouterr().err


def test_lemma4_uncertifiable_tail_is_one_fail_line(capsys):
    # a positive --tail-eps below the certificate part iv can give: one
    # FAIL line and a non-zero exit, no traceback
    argv = ["lemma4", "--part", "iv", "--h", "2", "--s", "1", "--t", "3", "--mmax", "10", "--tail-eps", "0.001"]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("FAIL tail_certificate (signed-sum tail certificate")
    assert "eps=0.001" in lines[0] and err == ""


@pytest.mark.parametrize("part, flags", [("i", ["--alpha", "0.6", "--beta", "0.7"]), ("iii", ["--h", "2", "--l", "1"])])
def test_lemma4_builds_no_grid_for_parts_i_and_iii(part, flags, monkeypatch, capsys):
    monkeypatch.setattr(ratio_bounds, "geometric_grid", _no_work)
    assert main(["lemma4", "--part", part, *flags, "--mmax", "2"]) == 0
    assert "sup_ratio=" in capsys.readouterr().out


def test_lemma568_subcommand(tmp_path, capsys):
    rc = main(
        [
            "lemma568",
            "--h", "2", "--n-list", "400,1600", "--seeds", "1,2,3",
            "--n-lo", "200",
            "--out", str(tmp_path),
        ]
    )
    out = capsys.readouterr().out
    data = json.loads((tmp_path / "lemma568.json").read_text())
    assert "floor" in data and "boundedness" in data
    assert rc in (0, 1)  # floor positivity is a statistical verdict at tiny N
    assert "floor_median_positive" in out


def test_replay_subcommand(tmp_path, capsys):
    main(["sweep", "--h", "2", "--n", "600", "--seeds", "4,5", "--out", str(tmp_path)])
    capsys.readouterr()
    rc = main(["replay", "--report", str(tmp_path / "report.json")])
    assert rc == 0
    assert "PASS replay" in capsys.readouterr().out

    report = json.loads((tmp_path / "report.json").read_text())
    report["records"][0]["c_size"] += 1
    (tmp_path / "tampered.json").write_text(json.dumps(report))
    rc = main(["replay", "--report", str(tmp_path / "tampered.json")])
    assert rc == 1


@pytest.mark.parametrize(
    "content, reason",
    [
        (None, "No such file"),
        ("not json", "Expecting value"),
        ('{"schema_version": 1}', "schema violation: missing config"),
        ('{"schema_version": 1, "config": {"h": 2, "n": 600, "seeds": [4], "window": [1, 600], "audit_hi": 10}, '
         '"records": [1], "aggregate": {}}', "schema violation: record must be an object"),
        ('{"schema_version": 1, "config": {"h": 1, "n": 600, "seeds": [4], "window": [1, 600], "audit_hi": 10}}',
         "schema violation: config refused: h must be >= 2"),
    ],
)
def test_bad_replay_report_is_usage_error(content, reason, tmp_path, monkeypatch, capsys):
    # exit 2 naming --report, before any report is re-run; a valid report
    # whose bytes differ stays the FAIL of exit 1 (test_replay_subcommand)
    monkeypatch.setattr(harness, "run_experiment", _no_work)
    path = tmp_path / "report.json"
    if content is not None:
        path.write_text(content)
    with pytest.raises(SystemExit) as exc:
        main(["replay", "--report", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: --report '{path}' is not a valid report" in err and reason in err


@pytest.mark.parametrize("command", ["construct", "verify"])
def test_format_only_on_sweep(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--h", "2", "--n", "200", "--seed", "1", "--format", "csv"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format" in capsys.readouterr().err


def test_missing_seeds_rejected(capsys):
    # a missing or repeated seed is a usage error (exit 2), not the exit 1 of a FAIL verdict
    cases = [
        (["sweep", "--h", "2", "--n", "100"], "need --seed or --seeds"),
        (["lemma568", "--h", "2", "--n-list", "400"], "need --seed or --seeds"),
        (["sweep", "--h", "2", "--n", "100", "--seeds", "1,1"], "repeats a seed"),
        (["lemma568", "--h", "2", "--n-list", "400", "--seeds", "2,3,2"], "repeats a seed"),
    ]
    for argv, message in cases:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert message in capsys.readouterr().err


def _model_argv(command, h="2", n="2000", window=None):
    argv = [command, "--h", h, "--n", n, "--seed" if command != "sweep" else "--seeds", "1"]
    return argv + (["--window", window] if window else [])


@pytest.mark.parametrize(
    "argv, flag",
    [
        *[(_model_argv(c, window=w), "--window") for c in ("construct", "verify", "sweep") for w in ("0:10", "50:40", "10:2001")],
        *[(_model_argv(c, n="0"), "--n") for c in ("sample", "construct", "verify", "sweep")],
        *[(_model_argv(c, h="1"), "--h") for c in ("sample", "construct", "verify", "sweep")],
    ],
)
def test_model_flags_out_of_range_are_usage_errors(argv, flag, monkeypatch, capsys):
    # refused with exit 2 (not the exit 1 of a FAIL verdict) before any sampling
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the flags were checked")

    monkeypatch.setattr(cli, "sample_set", no_sampling)
    monkeypatch.setattr(harness, "sample_set", no_sampling)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"error: {flag} must" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        *[
            ([c, "--h", "2", "--n", "100", "--seed", seed], "--seed")
            for c in ("sample", "construct", "verify", "sweep")
            for seed in ("-1", str(2**64))
        ],
        (["sweep", "--h", "2", "--n", "100", "--seeds", "-1"], "--seeds"),
        (["sweep", "--h", "2", "--n", "100", "--seeds", f"1,{2**64}"], "--seeds"),
        (["lemma568", "--h", "2", "--n-list", "400", "--seed", "-1"], "--seed"),
        (["lemma568", "--h", "2", "--n-list", "400", "--seeds", f"3,{2**64 + 5}"], "--seeds"),
    ],
)
def test_out_of_range_seeds_are_usage_errors(argv, flag, monkeypatch, capsys):
    # a seed the sampler refuses is exit 2 naming its flag, before any sampling
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the seeds were checked")

    monkeypatch.setattr(cli, "sample_set", no_sampling)
    monkeypatch.setattr(harness, "sample_set", no_sampling)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"error: {flag} must be in [0, 2^64)" in capsys.readouterr().err
