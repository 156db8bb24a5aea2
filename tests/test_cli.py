import json

import pytest

from bhbasis.cli import main


def test_sample_stdout(capsys):
    assert main(["sample", "--h", "2", "--n", "200", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    d = json.loads(out)
    assert set(d) == {"h", "N", "seed", "elements"}
    assert d["N"] == 200 and d["elements"][0] == 1


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
