import json
import os
from fractions import Fraction

import pytest

from oddcycle.board import Role, Variant, _edge_tables
from oddcycle.cli import CSV_HEADER, fixture_text, main, round_bias
from oddcycle.engine import Transcript
from oddcycle.solver import ENV_OVERRIDE
from oddcycle.strategies import STRATEGIES


@pytest.fixture
def clean_env():
    saved = os.environ.pop(ENV_OVERRIDE, None)
    yield
    if saved is None:
        os.environ.pop(ENV_OVERRIDE, None)
    else:
        os.environ[ENV_OVERRIDE] = saved


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_play_small_board_blocker_wins(tmp_path, capsys):
    out = tmp_path / "game.json"
    code, stdout, _ = run(["play", "--n", "3", "--b", "1",
                           "--builder", "maker-oc",
                           "--blocker", "random-breaker",
                           "--seed", "5", "--out", str(out)], capsys)
    assert code == 0
    assert "blocker wins" in stdout
    t = Transcript.from_json(out.read_text())
    assert t.config.n == 3
    code, stdout, _ = run(["replay", str(out)], capsys)
    assert code == 0
    assert "digest ok" in stdout


def test_play_unknown_strategy_is_usage_error(capsys):
    code, _, err = run(["play", "--n", "6", "--b", "2",
                        "--builder", "nosuch"], capsys)
    assert code == 2
    assert "nosuch" in err


def test_strategy_from_wrong_variant_or_side_is_usage_error(capsys):
    for argv, name in ((["verify", "--strategy", "maker-oc", "--side", "blocker",
                         "--n", "4", "--b", "1"], "maker-oc"),
                       (["verify", "--strategy", "client-connected", "--side", "builder",
                         "--n", "4", "--b", "1"], "client-connected"),
                       (["play", "--n", "6", "--b", "2", "--builder", "client-connected"],
                        "client-connected")):
        code, _, err = run(argv, capsys)
        assert code == 2, argv
        assert f"{name!r} is not a maker-breaker" in err
        assert "Traceback" not in err
    # every seat a name does not play, in both variants
    for name, (_, seats) in STRATEGIES.items():
        for variant in Variant:
            for role in Role:
                if (variant, role) in seats:
                    continue
                argv = ["verify", "--strategy", name, "--side", role.value,
                        "--variant", variant.value, "--n", "4", "--b", "1"]
                code, _, err = run(argv, capsys)
                assert code == 2, argv
                assert f"{name!r} is not a {variant.value} {role.value} strategy" in err
                assert "Traceback" not in err


def test_option_the_strategy_does_not_take_is_usage_error(capsys):
    code, _, err = run(["verify", "--strategy", "maker-oc", "--side", "builder",
                        "--n", "4", "--b", "1", "--lookahead", "claim-only"], capsys)
    assert code == 2
    assert "'maker-oc' takes no option lookahead" in err
    assert "Traceback" not in err


def test_play_needs_some_bias(capsys):
    code, _, err = run(["play", "--n", "6"], capsys)
    assert code == 2
    assert "bias-frac" in err


def test_round_bias_modes():
    assert round_bias(Fraction("0.47") * 200, "ceil") == 94
    assert round_bias(Fraction("0.47") * 10, "ceil") == 5
    assert round_bias(Fraction("0.47") * 10, "floor") == 4
    assert round_bias(Fraction("0.45") * 10, "nearest") == 5
    assert round_bias(Fraction("0.44") * 10, "nearest") == 4


def test_bias_frac_flows_into_game(capsys):
    code, stdout, _ = run(["play", "--n", "10", "--bias-frac", "0.47",
                           "--round", "floor", "--seed", "1"], capsys)
    assert code == 0
    assert "b=4" in stdout


def test_tournament_csv_shape(tmp_path, capsys):
    csv_path = tmp_path / "report.csv"
    args = ["tournament", "--n", "10", "--b", "3",
            "--builders", "maker-oc,random-maker",
            "--blockers", "greedy-breaker",
            "--games", "3", "--seed", "7", "--csv", str(csv_path)]
    code, _, _ = run(args, capsys)
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 3
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[1] == "3"
        assert int(cells[2]) + int(cells[3]) == 3


def test_tournament_reports_are_deterministic(tmp_path, capsys):
    outs = []
    for name, jobs in [("a.csv", "1"), ("b.csv", "1"), ("c.csv", "2")]:
        path = tmp_path / name
        code, _, _ = run(["tournament", "--n", "10", "--b", "3",
                          "--games", "4", "--seed", "2", "--jobs", jobs,
                          "--csv", str(path)], capsys)
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_tournament_config_file_with_cli_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": 8, "b": 3, "builders": "maker-oc",
                               "blockers": "greedy-breaker", "games": 2,
                               "seed": 1}))
    csv_path = tmp_path / "r.csv"
    code, _, _ = run(["tournament", "--config", str(cfg), "--games", "3",
                      "--csv", str(csv_path)], capsys)
    assert code == 0
    row = csv_path.read_text().splitlines()[1].split(",")
    assert row[0] == "maker-oc vs greedy-breaker"
    assert row[1] == "3"


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": 8, "b": 3, "bogus": 1}))
    code, _, err = run(["tournament", "--config", str(cfg)], capsys)
    assert code == 2
    assert "bogus" in err
    for bias in ({"b": 1}, {"bias_frac": "0.5"}):
        cfg.write_text(json.dumps({"n": "5", **bias}))
        code, _, err = run(["play", "--config", str(cfg)], capsys)
        assert code == 2
        assert "n must be an integer" in err


def test_assert_mode_fails_fast_with_state(capsys):
    code, _, err = run(["play", "--n", "10", "--b", "4",
                        "--builder", "random-maker",
                        "--blocker", "random-breaker",
                        "--hooks", "degree-regularity",
                        "--assert-mode", "--seed", "0"], capsys)
    assert code == 1
    assert "degree spread" in err
    state_line = next(l for l in err.splitlines() if l.startswith("state:"))
    snap = json.loads(state_line.split("state:", 1)[1])
    assert snap["s"] >= 1 and snap["k"] >= 1
    assert set(snap["owners"]) <= set("0123456789abcdef")


def test_observe_mode_counts_violations(tmp_path, capsys):
    csv_path = tmp_path / "r.csv"
    code, _, _ = run(["tournament", "--n", "10", "--b", "4",
                      "--builders", "random-maker",
                      "--blockers", "random-breaker",
                      "--hooks", "degree-regularity",
                      "--games", "2", "--seed", "0",
                      "--csv", str(csv_path)], capsys)
    assert code == 0
    row = csv_path.read_text().splitlines()[1].split(",")
    assert int(row[5]) > 0


def test_tournament_transcript_dir(tmp_path, capsys):
    tdir = tmp_path / "games"
    code, _, _ = run(["tournament", "--n", "8", "--b", "3", "--games", "2",
                      "--seed", "4", "--csv", str(tmp_path / "r.csv"),
                      "--transcript-dir", str(tdir)], capsys)
    assert code == 0
    files = sorted(tdir.iterdir())
    assert len(files) == 2
    for f in files:
        assert main(["replay", str(f)]) == 0
    capsys.readouterr()


def test_maker_loss_hook_requires_matching_builder(capsys):
    code, _, err = run(["play", "--n", "8", "--b", "3",
                        "--builder", "random-maker", "--hooks", "maker-loss"],
                       capsys)
    assert code == 2
    assert "maker-oc" in err


def test_solve_value_and_threshold(capsys):
    code, stdout, _ = run(["solve", "--n", "4", "--threshold"], capsys)
    assert code == 0
    assert "b*=1" in stdout
    code, stdout, _ = run(["solve", "--n", "5", "--b", "2",
                           "--variant", "client-waiter",
                           "--rules", "connected"], capsys)
    assert code == 0
    assert "blocker wins" in stdout


def test_solve_fixture_roundtrip(tmp_path, capsys):
    path = tmp_path / "thresholds.json"
    code, _, _ = run(["solve", "--fixture", str(path), "--update"], capsys)
    assert code == 0
    assert path.read_text() == fixture_text()
    code, _, _ = run(["solve", "--fixture", str(path)], capsys)
    assert code == 0
    path.write_text(path.read_text().replace('"3": 1', '"3": 2'))
    code, _, err = run(["solve", "--fixture", str(path)], capsys)
    assert code == 1
    assert "mismatch" in err
    code, _, err = run(["solve", "--fixture", str(tmp_path / "nope.json")], capsys)
    assert code == 1


def test_verify_accepts_and_refutes(tmp_path, capsys):
    code, stdout, _ = run(["verify", "--strategy", "client-connected",
                           "--side", "builder", "--n", "4", "--b", "0",
                           "--variant", "client-waiter",
                           "--rules", "connected"], capsys)
    assert code == 0
    assert "wins against all" in stdout
    ce = tmp_path / "ce.json"
    code, stdout, _ = run(["verify", "--strategy", "maker-oc",
                           "--side", "builder", "--n", "4", "--b", "1",
                           "--out", str(ce)], capsys)
    assert code == 1
    assert "refuted" in stdout
    assert main(["replay", str(ce)]) == 0
    capsys.readouterr()
    # random strategies hide their generator from the search: usage error
    for extra in (["--strategy", "random-maker", "--side", "builder", "--n", "5"],
                  ["--strategy", "random-waiter", "--side", "blocker", "--n", "4",
                   "--variant", "client-waiter", "--rules", "connected"]):
        code, _, err = run(["verify", "--b", "1", *extra], capsys)
        assert code == 2
        assert "random generator" in err


def test_optimize_continuous_and_discrete(tmp_path, capsys):
    code, stdout, _ = run(["optimize", "--continuous"], capsys)
    assert code == 0
    assert "overall 0.310102051443" in stdout
    out = tmp_path / "min.json"
    code, stdout, _ = run(["optimize", "--n", "7", "--b", "1",
                           "--json", str(out)], capsys)
    assert code == 0
    assert "value=2" in stdout
    data = json.loads(out.read_text())
    assert data["value"] == [2, 1]
    assert len(data["argmins"]) == 4


def test_optimize_needs_arguments(capsys):
    code, _, err = run(["optimize"], capsys)
    assert code == 2


def test_audit_reports_flags(capsys):
    code, stdout, _ = run(["audit", "--eps", "0.06", "--n", "200"], capsys)
    assert code == 0
    assert "nonpositive-factor" in stdout
    assert "all-hold: False  flagged: 3" in stdout
    code, stdout, _ = run(["audit", "--eps", "1/1000", "--n", "500"], capsys)
    assert code == 0
    assert "all-hold: True" in stdout


def test_replay_detects_corruption(tmp_path, capsys):
    game = tmp_path / "game.json"
    assert main(["play", "--n", "4", "--b", "1", "--seed", "3",
                 "--out", str(game)]) == 0
    capsys.readouterr()
    d = json.loads(game.read_text())
    d["result"]["winner"] = ("builder" if d["result"]["winner"] == "blocker"
                             else "blocker")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    code, _, err = run(["replay", str(bad)], capsys)
    assert code == 1
    trunc = tmp_path / "trunc.json"
    text = game.read_text()
    trunc.write_text(text[:len(text) // 2])
    code, _, err = run(["replay", str(trunc)], capsys)
    assert code == 2
    assert "parse error" in err
    code, _, err = run(["replay", str(tmp_path / "missing.json")], capsys)
    assert code == 2
    d = json.loads(game.read_text())
    d["config"]["n"] = "5"
    for doc in (d, [], {**d, "config": []}, {**d, "moves": [1]}):
        bad.write_text(json.dumps(doc))
        code, _, err = run(["replay", str(bad)], capsys)
        assert code == 2
        assert "parse error" in err


def test_huge_board_exits_2_before_building_edge_tables(tmp_path, capsys):
    game = tmp_path / "game.json"
    assert main(["play", "--n", "4", "--b", "1", "--out", str(game)]) == 0
    d = json.loads(game.read_text())
    d["config"]["n"] = 200000
    game.write_text(json.dumps(d))
    misses = _edge_tables.cache_info().misses
    for args in (["play", "--n", "200000", "--b", "1"],
                 ["tournament", "--n", "200000", "--b", "1"],
                 ["replay", str(game)]):
        code, _, err = run(args, capsys)
        assert code == 2
        assert "largest supported board" in err
    assert _edge_tables.cache_info().misses == misses


def test_capacity_flag_and_exit_code(clean_env, capsys):
    code, _, err = run(["solve", "--n", "9", "--b", "1"], capsys)
    assert code == 2
    assert ENV_OVERRIDE in err
    code, _, err = run(["solve", "--n", "6", "--b", "2",
                        "--capacity", "mb_max_n=5"], capsys)
    assert code == 2
    code, _, err = run(["verify", "--strategy", "maker-oc", "--side", "builder",
                        "--n", "5", "--b", "1", "--capacity", "verify_node_cap=3"], capsys)
    assert code == 2
    assert "exceeded 3 nodes" in err
    os.environ.pop(ENV_OVERRIDE, None)
    code, _, _ = run(["solve", "--n", "4", "--b", "1"], capsys)
    assert code == 0


def test_capacity_entry_that_is_not_a_number_is_usage_error(clean_env, capsys):
    # named like an unknown key, not as int()'s message
    for spec in ("mb_max_n=abc", "bogus_key=3"):
        code, _, err = run(["solve", "--n", "5", "--b", "2", "--capacity", spec], capsys)
        assert code == 2
        assert err.strip() == f"error: bad {ENV_OVERRIDE} entry: {spec!r}"


def test_capacity_flag_is_scoped_to_the_command(clean_env, capsys):
    code, _, _ = run(["solve", "--n", "4", "--b", "1", "--capacity", "mb_max_n=5"], capsys)
    assert code == 0
    assert ENV_OVERRIDE not in os.environ
    os.environ[ENV_OVERRIDE] = "mb_max_n=8"
    code, _, _ = run(["verify", "--strategy", "maker-oc", "--side", "builder",
                      "--n", "5", "--b", "1", "--capacity", "verify_mb_max_n=6"], capsys)
    assert code == 0
    assert os.environ[ENV_OVERRIDE] == "mb_max_n=8"
    # a command that fails on its capacity restores the variable too
    code, _, _ = run(["solve", "--n", "6", "--b", "2", "--capacity", "mb_max_n=5"], capsys)
    assert code == 2
    assert os.environ[ENV_OVERRIDE] == "mb_max_n=8"
