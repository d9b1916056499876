import json

import pytest

from cleb.cli import main
from cleb.graph import dump_graph_json
from cleb.instances import random_symmetric_instance


def run(argv):
    return main(argv)


def test_msa_prints_edges(capsys, tmp_path):
    out = tmp_path / "msa.csv"
    code = run(["msa", "--graph", "fixture:sandwich_triangle", "--out", str(out)])
    assert code == 0
    body = out.read_text().splitlines()
    assert body[0] == "edge"
    assert len(body) == 4  # header plus one edge per non-boundary vertex


def test_msa_json_format(capsys):
    code = run(["msa", "--graph", "fixture:sandwich_bounce", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"edges", "total_weight"}


def test_msa_with_sampled_weights(capsys):
    code = run(["msa", "--graph", "fixture:distribution_gap",
                "--weights", "exp1", "--seed", "5"])
    assert code == 0


def test_cleb_walk_writes_jsonl(tmp_path, capsys):
    out = tmp_path / "walk.jsonl"
    code = run(["cleb-walk", "--graph", "fixture:sandwich_nested",
                "--start", "1", "--out", str(out)])
    assert code == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert rows[0]["event"] == "expose"
    assert any(r["event"] == "contract" for r in rows)


def test_lcrw_trace(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code = run(["lcrw", "--graph", "fixture:symmetric_demo", "--start", "1",
                "--seed", "4", "--out", str(out)])
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert header == "step,event,path_len,cycle_len"


def test_lcrw_grid_trace(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    code = run(["lcrw-grid", "--d", "2", "--side", "15", "--seed", "2",
                "--step-cap", "500", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "step,event,path_len,cycle_len,x,y"
    assert len(lines) > 1


def test_lcrw_grid_requires_out(capsys, monkeypatch):
    monkeypatch.setattr("cleb.families.transience_trace", _no_walk)
    assert run(["lcrw-grid", "--side", "9", "--seed", "1"]) == 2
    assert "needs --out" in capsys.readouterr().err


def _no_walk(*args, **kwargs):
    raise AssertionError("the walk ran before the arguments were checked")


@pytest.mark.parametrize("flags, message", [(["--d", "1", "--side", "12"], "--d must be 2"),
                                           (["--d", "3", "--side", "12"], "--d must be 2"),
                                           (["--side", "-3"], "--side must not be negative"),
                                           (["--side", "12"], "--side must be odd"),
                                           (["--side", "0"], "--side must be odd"),
                                           (["--side", "1"], "--side must be odd"),
                                           (["--side", "2"], "--side must be odd")])
def test_lcrw_grid_rejects_bad_flags_before_walking(tmp_path, capsys, monkeypatch, flags, message):
    monkeypatch.setattr("cleb.families.transience_trace", _no_walk)
    out = tmp_path / "grid.csv"
    assert run(["lcrw-grid", *flags, "--seed", "1", "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_wilson_sandwich_report(tmp_path, capsys):
    out = tmp_path / "sw.csv"
    code = run(["wilson-sandwich", "--graph", "fixture:sandwich_bounce",
                "--start", "1", "--betas", "2,20", "--trials", "50",
                "--seed", "3", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "beta,trials,frequency,stderr,capped"
    assert len(lines) == 3


def test_invasion_check_pass_and_config_error(capsys, tmp_path):
    assert run(["invasion-check", "--graph", "fixture:symmetric_demo",
                "--start", "1"]) == 0
    assert run(["invasion-check", "--graph", "fixture:sandwich_triangle",
                "--start", "1"]) == 2


def test_dist_compare_target(capsys, tmp_path):
    out = tmp_path / "dist.csv"
    code = run(["dist-compare", "--graph", "fixture:distribution_gap",
                "--models", "exp1,unif01", "--samples", "20000", "--seed", "7",
                "--target", "0,1,2", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "exp1" in printed and "unif01" in printed


def test_dist_compare_byte_identical(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        assert run(["dist-compare", "--graph", "fixture:distribution_gap",
                    "--models", "exp1", "--samples", "5000", "--seed", "9",
                    "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_wired_limit_flags_and_config(tmp_path, capsys):
    out = tmp_path / "wl.csv"
    code = run(["wired-limit", "--family", "tree:2", "--radii", "3,4,5",
                "--probes", "1", "--seeds", "3", "--weights", "exp1",
                "--seed", "11", "--out", str(out)])
    assert code == 0
    assert out.read_text().startswith("seed_index,probe,")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "tree:2", "model": "exp1",
                               "radii": [3, 4], "probes": [1], "seeds": 2,
                               "seed": 11}))
    out2 = tmp_path / "wl2.csv"
    code = run(["wired-limit", "--config", str(cfg), "--out", str(out2)])
    assert code == 0


def test_connectivity_command(tmp_path, capsys):
    out = tmp_path / "conn.csv"
    code = run(["connectivity", "--family", "tree:3", "--radii", "2,3,4",
                "--probes", "1,2,3,4", "--pairs", "3", "--seeds", "2",
                "--seed", "5", "--out", str(out)])
    assert code == 0


def test_verify_exit_codes_and_report(tmp_path, capsys):
    code = run(["verify", "invasion", "--fast", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "invasion.csv").exists()
    printed = capsys.readouterr().out
    assert "[invasion] PASS" in printed


def test_verify_escape_reports_plain_values(tmp_path, capsys):
    for fmt in ("json", "csv"):
        assert run(["verify", "escape", "--fast", "--format", fmt,
                    "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "escape.json").read_text())
    assert report["ok"] is True and report["rows"]
    assert "np." not in (tmp_path / "escape.csv").read_text()


def test_verify_unknown_suite(capsys):
    assert run(["verify", "nonsense"]) == 1


def test_verify_reports_reproducible(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert run(["verify", "perturbation", "--fast", "--seed", "123",
                    "--out", str(out)]) == 0
    left = (a / "perturbation.csv").read_bytes()
    right = (b / "perturbation.csv").read_bytes()
    assert left == right


def test_wired_limit_byte_identical(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        assert run(["wired-limit", "--family", "tree:2", "--radii", "3,4",
                    "--probes", "1", "--seeds", "2", "--weights", "exp1",
                    "--seed", "13", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_missing_weights_is_config_error(tmp_path, capsys):
    g, _, w, _ = random_symmetric_instance(1)
    path = tmp_path / "nw.json"
    dump_graph_json(path, g)
    assert run(["msa", "--graph", str(path)]) == 2


def test_exhaustion_commands_honour_step_cap(tmp_path, capsys):
    code = run(["wired-limit", "--family", "tree:2", "--radii", "8", "--probes", "1",
                "--step-cap", "1"])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    code = run(["connectivity", "--family", "tree:3", "--radii", "2,3",
                "--probes", "1,2,3,4", "--pairs", "1", "--step-cap", "1"])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    cfg = tmp_path / "cap.json"
    cfg.write_text(json.dumps({"family": "tree:2", "radii": [8], "probes": [1],
                               "step_cap": 1}))
    assert run(["wired-limit", "--config", str(cfg)]) == 1


@pytest.mark.parametrize("body", [
    {"family": "tree:2", "radii": [3], "probes": [1], "radius": [4]},
    {"family": "tree:2", "radii": [3]},
    {"radii": [3], "probes": [1]},
    ["tree:2"],
    "{not json",
])
@pytest.mark.parametrize("command", ["wired-limit", "connectivity"])
def test_bad_exhaustion_config_is_config_error(tmp_path, capsys, command, body):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(body if isinstance(body, str) else json.dumps(body))
    assert run([command, "--config", str(cfg)]) == 2
    assert "config error:" in capsys.readouterr().err


def test_wired_limit_config_rejects_pairs(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "tree:2", "radii": [3, 4], "probes": [1],
                               "pairs": 7}))
    assert run(["wired-limit", "--config", str(cfg)]) == 2
    assert "unknown keys ['pairs']" in capsys.readouterr().err


_GOOD_CONFIG = {"family": "tree:3", "radii": [2, 3], "probes": [1, 2, 3]}
_BAD_VALUES = [{"radii": "8"}, {"radii": [8.5]}, {"radii": [True]}, {"probes": 1},
               {"probes": ["1"]}, {"seeds": "2"}, {"seeds": True}, {"seed": 1.0},
               {"family_seed": None}, {"step_cap": "5"}, {"family": 2}, {"model": ["exp1"]}]


@pytest.mark.parametrize("command, bad",
                         [(c, b) for c in ("wired-limit", "connectivity") for b in _BAD_VALUES]
                         + [("connectivity", {"pairs": "2"}), ("connectivity", {"pairs": False})],
                         ids=str)
def test_config_values_of_the_wrong_type_are_config_errors(tmp_path, capsys, command, bad):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**_GOOD_CONFIG, **bad}))
    assert run([command, "--config", str(cfg)]) == 2
    key = next(iter(bad))
    assert f"{key} must be" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["lcrw", "--graph", "fixture:symmetric_demo", "--start", "1"],
    ["lcrw-grid", "--side", "9"],
    ["cleb-walk", "--graph", "fixture:sandwich_bounce", "--start", "1"],
    ["wired-limit", "--family", "tree:2", "--radii", "3", "--probes", "1"],
])
def test_format_is_rejected_where_it_is_not_honoured(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--format", "json"])
    assert exc.value.code == 2


_RUN_FLAGS = [["--family", "path"], ["--weights", "unif01"], ["--radii", "7,8"],
              ["--probes", "2"], ["--seeds", "3"]]


@pytest.mark.parametrize("command, flag",
                         [("wired-limit", f) for f in _RUN_FLAGS]
                         + [("connectivity", f) for f in _RUN_FLAGS + [["--pairs", "2"]]])
def test_exhaustion_flags_with_config_are_config_errors(tmp_path, capsys, command, flag):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "tree:2", "radii": [3, 4], "probes": [1, 2]}))
    assert run([command, "--config", str(cfg)] + flag) == 2
    assert "cannot be combined with --config" in capsys.readouterr().err


@pytest.mark.parametrize("command, pairs", [("wired-limit", {}),
                                            ("connectivity", {"pairs": 2})])
def test_seed_and_step_cap_come_from_flags_or_config_not_both(tmp_path, capsys, command,
                                                               pairs):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "tree:3", "radii": [2, 3], "probes": [1, 2, 3],
                               **pairs}))
    for flag in (["--seed", "0"], ["--step-cap", "5"]):
        assert run([command, "--config", str(cfg)] + flag) == 2
        assert "cannot be combined with --config" in capsys.readouterr().err
    # with neither the flag nor the key, a run uses seed 0 and step cap 1,000,000
    base = ["--family", "tree:3", "--radii", "2,3", "--probes", "1,2,3"]
    base += [f"--{k}={v}" for k, v in pairs.items()]
    by_flags = tmp_path / "flags.csv"
    assert run([command, *base, "--seed", "0", "--step-cap", "1000000",
                "--out", str(by_flags)]) == 0
    by_config = tmp_path / "config.csv"
    assert run([command, "--config", str(cfg), "--out", str(by_config)]) == 0
    assert by_config.read_bytes() == by_flags.read_bytes()
    unseeded = tmp_path / "unseeded.csv"
    assert run([command, *base, "--out", str(unseeded)]) == 0
    assert unseeded.read_bytes() == by_flags.read_bytes()


def test_wilson_sandwich_rejects_betas_sharing_a_stream(capsys):
    code = run(["wilson-sandwich", "--graph", "fixture:sandwich_bounce",
                "--start", "1", "--betas", "0.0001,0.0002", "--trials", "5"])
    assert code == 2
    assert "config error:" in capsys.readouterr().err


def test_wilson_sandwich_honours_the_step_cap(capsys):
    code = run(["wilson-sandwich", "--graph", "fixture:sandwich_bounce", "--start", "1",
                "--betas", "20", "--trials", "3", "--step-cap", "5"])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[1] == "20.0,3,0.0,0.0,3"


@pytest.mark.parametrize("argv", [
    ["wilson-sandwich", "--graph", "fixture:sandwich_bounce", "--start", "1", "--trials", "0"],
    ["wilson-sandwich", "--graph", "fixture:sandwich_bounce", "--start", "1", "--trials", "-3"],
    ["dist-compare", "--graph", "fixture:distribution_gap", "--samples", "0"],
    ["dist-compare", "--graph", "fixture:distribution_gap", "--samples", "-5"],
])
def test_monte_carlo_counts_below_one_are_config_errors(argv, capsys, monkeypatch):
    import cleb.oracle
    import cleb.walks

    def no_work(*args, **kwargs):
        raise AssertionError("walked or drew before rejecting the count")

    monkeypatch.setattr(cleb.walks, "first_epoch_contraction_sets", no_work)
    monkeypatch.setattr(cleb.oracle, "enumerate_arborescences", no_work)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert "config error:" in captured.err and captured.out == ""


@pytest.mark.parametrize("argv", [
    ["dist-compare", "--graph", "fixture:distribution_gap", "--weights", "exp1"],
    ["dist-compare", "--graph", "fixture:distribution_gap", "--step-cap", "3"],
    ["invasion-check", "--graph", "fixture:symmetric_demo", "--start", "1", "--step-cap", "1"],
    ["invasion-check", "--graph", "fixture:symmetric_demo", "--start", "1", "--seed", "5"],
    ["lcrw", "--graph", "fixture:symmetric_demo", "--start", "1", "--weights", "exp1"],
])
def test_flags_a_command_would_ignore_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
