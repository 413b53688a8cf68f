"""Command-line surface: exit codes, report rendering, JSON shapes."""
import json
import logging
import os
import re
import subprocess
import sys

import pytest

import sfsyn.cli as cli_module
import sfsyn.injection as injection_module
from sfsyn.cli import main
from sfsyn.dfa import (
    Dfa,
    format_dfa,
    is_minimal,
    parse_dfa,
    relabel,
    suffix_free_violation,
    transition_semigroup,
    witness,
)
import sfsyn.search as search_module
from sfsyn.search import search_max
from sfsyn.semigroup import TransitionSemigroup
from sfsyn.transform import Transformation
from test_acceptance import draw_seven_state_dfas

# ab* is suffix-free; a* accepts the empty word and everything above it
AB_STAR = "n=3 letters=a,b initial=0 finals=1\na: 1 2 2\nb: 2 1 2\n"
A_STAR = "n=2 letters=a initial=0 finals=0\na: 0 1\n"

# sfsyn search without --json: after the JSON report, one timing comment
# per key, in seconds to the microsecond
TIMING_LINE = re.compile(r"# timing (.+): (\d+\.\d{6})s")


def search_timing_keys(levels: int) -> list[str]:
    # each level's wall time and the part spent judging, then the search
    # call's and the whole command's
    per_level = [key for k in range(1, levels + 1) for key in (f"level {k}", f"level {k} judging")]
    return per_level + ["search", "total"]


def search_timing(out: str) -> tuple[dict, dict[str, float]]:
    # the report and its timing comments, levels numbered 1 up to its
    # level count
    head, _, tail = out.partition("\n# timing ")
    doc = json.loads(head)
    found = [TIMING_LINE.fullmatch(line) for line in ("# timing " + tail).splitlines()]
    assert all(found), out
    timings = {m.group(1): float(m.group(2)) for m in found}
    assert list(timings) == search_timing_keys(len(doc["statistics"]["level_sizes"]))
    return doc, timings


def search_doc(out: str) -> dict:
    return search_timing(out)[0]


def test_witness_output_parses_back(capsys):
    code = main(["witness", "--n", "5"])
    out, _ = capsys.readouterr()
    assert code == 0
    assert parse_dfa(out) == witness(5)


def test_witness_dot_format(capsys):
    code = main(["witness", "--n", "4", "--format", "dot"])
    out, _ = capsys.readouterr()
    assert code == 0
    assert out.startswith("digraph")


def test_witness_json_wraps_the_table(capsys):
    code = main(["--json", "witness", "--n", "5"])
    out, _ = capsys.readouterr()
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "witness"
    assert doc["inputs"] == {"n": 5, "format": "dfa"}
    assert parse_dfa(doc["dfa"]) == witness(5)


def test_witness_rejects_small_n(capsys):
    code = main(["witness", "--n", "3"])
    _, err = capsys.readouterr()
    assert code == 2
    assert "error" in err


def test_verify_bound_five(capsys):
    code = main(["verify-bound", "--n", "5"])
    out, _ = capsys.readouterr()
    assert code == 0
    assert "command: verify-bound" in out
    assert "PASS semigroup size reaches the bound: expected 67, actual 67" in out
    assert "PASS witness language is suffix-free" in out
    assert "PASS witness automaton is minimal" in out
    assert "PASS no interior pair collides: expected 0, actual 0" in out
    assert "overall: PASS" in out
    assert "FAIL" not in out


def test_verify_bound_seven_reports_embedding_cases(capsys):
    code = main(["verify-bound", "--n", "7"])
    out, _ = capsys.readouterr()
    assert code == 0
    assert "PASS semigroup size reaches the bound: expected 7781, actual 7781" in out
    assert "PASS embedding is injective on the witness semigroup" in out
    assert "note case_counts: {'1': 7781}" in out
    assert "overall: PASS" in out


def test_verify_bound_json_shape(capsys):
    code = main(["--json", "verify-bound", "--n", "5"])
    out, _ = capsys.readouterr()
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    names = [a["name"] for a in doc["assertions"]]
    assert names == [
        "semigroup size reaches the bound",
        "witness language is suffix-free",
        "witness automaton is minimal",
        "no interior pair collides",
    ]
    assert all(a["pass"] for a in doc["assertions"])
    assert doc["assertions"][0] == {
        "name": "semigroup size reaches the bound",
        "expected": 67,
        "actual": 67,
        "pass": True,
    }
    assert "total" in doc["timings"]


def test_verify_bound_times_each_phase(capsys):
    # per-phase timings sit beside the total, outside the assertions
    assert main(["--json", "verify-bound", "--n", "7"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc["timings"]) == ["closure", "pairs", "embedding", "total"]
    assert all(v >= 0 for v in doc["timings"].values())
    assert len(doc["assertions"]) == 5
    assert "timings" not in doc["details"]
    # below 7 states there is no embedding to time
    assert main(["--json", "verify-bound", "--n", "5"]) == 0
    assert list(json.loads(capsys.readouterr().out)["timings"]) == ["closure", "pairs", "total"]
    assert main(["verify-bound", "--n", "7"]) == 0
    tail = capsys.readouterr().out.splitlines()[-4:]
    assert [line.split(":")[0] for line in tail] == [
        "# timing closure",
        "# timing pairs",
        "# timing embedding",
        "# timing total",
    ]


def test_verify_bound_guards(capsys):
    assert main(["verify-bound", "--n", "3"]) == 2
    capsys.readouterr()
    # very large closures need an explicit opt-in
    assert main(["verify-bound", "--n", "9"]) == 2
    _, err = capsys.readouterr()
    assert "--allow-slow" in err


def test_verify_bound_beyond_raw_maps_is_a_usage_error(capsys):
    # raw maps hold one byte per image, so closure stops at 256 states
    assert main(["verify-bound", "--n", "300", "--allow-slow"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: closure works on at most 256 states, got n=300\n"


def test_letters_five_drop_sizes(capsys):
    code = main(["letters", "--n", "5"])
    out, _ = capsys.readouterr()
    assert code == 0
    for name, size in zip("abcde", (28, 64, 37, 31, 64)):
        line = (
            f"PASS dropping letter {name} shrinks the semigroup: "
            f"expected size below 67, actual {size}"
        )
        assert line in out
    assert "overall: PASS" in out


def test_letters_range_guard(capsys):
    assert main(["letters", "--n", "4"]) == 2
    capsys.readouterr()
    assert main(["letters", "--n", "8"]) == 2
    capsys.readouterr()


def test_phi_on_the_seven_state_witness(tmp_path, capsys):
    path = os.path.join(tmp_path, "w7.dfa")
    with open(path, "w") as fh:
        fh.write(format_dfa(witness(7)))
    code = main(["phi", path])
    out, _ = capsys.readouterr()
    assert code == 0
    assert "PASS input language is suffix-free" in out
    assert "PASS every image collapses its interior" in out
    assert "PASS images are pairwise distinct" in out
    assert "PASS every image inverts back" in out
    assert "PASS semigroup size within the bound: expected <= 7781, actual 7781" in out
    assert "note case_counts: {'1': 7781}" in out
    assert "overall: PASS" in out


def test_phi_times_each_phase(tmp_path, capsys):
    path = os.path.join(tmp_path, "w7.dfa")
    with open(path, "w") as fh:
        fh.write(format_dfa(witness(7)))
    assert main(["--json", "phi", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc["timings"]) == ["closure", "pairs", "embedding", "total"]
    assert list(doc["details"]) == ["case_counts"]


def test_phi_renumbers_a_relabelled_witness(tmp_path, capsys):
    # same language with the initial and empty states moved off 0 and n-1
    path = os.path.join(tmp_path, "r7.dfa")
    with open(path, "w") as fh:
        fh.write(format_dfa(relabel(witness(7), [3, 1, 2, 0, 4, 6, 5])))
    code = main(["--json", "phi", path])
    out, _ = capsys.readouterr()
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["details"]["case_counts"] == {"1": 7781}


def test_phi_needs_seven_states(tmp_path, capsys):
    path = os.path.join(tmp_path, "w5.dfa")
    with open(path, "w") as fh:
        fh.write(format_dfa(witness(5)))
    assert main(["phi", path]) == 2
    _, err = capsys.readouterr()
    assert "7 states" in err


def test_phi_beyond_raw_maps_is_a_usage_error(tmp_path, capsys):
    # the minimal DFA of the one word a^298: a chain into the empty state
    n = 300
    chain = Transformation(tuple(min(q + 1, n - 1) for q in range(n)))
    d = Dfa(n, ("a",), (chain,), 0, frozenset({n - 2}))
    assert is_minimal(d) and suffix_free_violation(d) is None
    path = os.path.join(tmp_path, "chain300.dfa")
    with open(path, "w") as fh:
        fh.write(format_dfa(d))
    assert main(["phi", path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: the embedding works on at most 256 states, got 300\n"


def test_phi_flags_a_suffix_violation_first(tmp_path, capsys):
    path = os.path.join(tmp_path, "loop7.dfa")
    with open(path, "w") as fh:
        fh.write("n=7 letters=a initial=0 finals=0\na: 0 1 2 3 4 5 6\n")
    code = main(["phi", path])
    out, _ = capsys.readouterr()
    assert code == 1
    assert "FAIL input language is suffix-free" in out
    assert "overall: FAIL" in out
    # nothing after the gate runs
    assert "images" not in out


def test_phi_reports_a_failed_strict_gap_check(tmp_path, capsys, monkeypatch):
    # an inverse that takes the gap witness back to itself, and every
    # image back to its map as before, makes only the gap witness fail
    # its own check: the strict-gap assertion fails with the message
    # under details, in text and in JSON, and the command exits 1
    d = next(d for d in draw_seven_state_dfas() if transition_semigroup(d).pair_scan.colliding)
    path = os.path.join(tmp_path, "colliding7.dfa")
    with open(path, "w") as fh:
        fh.write(format_dfa(d))
    gap = bytes(injection_module.strict_bound_witness(transition_semigroup(d)).images)
    real = injection_module._undo
    monkeypatch.setattr(
        injection_module, "_undo", lambda s, colliding: s if s == gap else real(s, colliding)
    )
    message = re.compile(r"strict-bound witness ([0-6 ]+) inverts to \1")
    assert main(["phi", path]) == 1
    out = capsys.readouterr().out
    assert "PASS every image inverts back" in out
    assert "PASS images are pairwise distinct" in out
    assert (
        "FAIL colliding pair forces a strict gap: expected a collapsing "
        "transformation no element maps to, actual missing\n"
    ) in out
    assert message.fullmatch(re.search(r"^note gap_error: (.*)$", out, re.M).group(1))
    assert "overall: FAIL" in out
    assert main(["--json", "phi", path]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is False
    gap = next(a for a in doc["assertions"] if a["name"] == "colliding pair forces a strict gap")
    assert gap["pass"] is False and gap["actual"] == "missing"
    assert message.fullmatch(doc["details"]["gap_error"])
    assert "gap_witness" not in doc["details"]


def test_phi_reports_an_inconsistent_semigroup(tmp_path, capsys, monkeypatch):
    # a closure that came out inconsistent (the pair {1, 2} collided by
    # one element and focused by another) fails the run with the
    # embedding's message under details, in text and in JSON, exit 1
    raw = tuple(bytes(t) for t in ((6,) * 7, (1, 2, 6, 6, 6, 6, 6), (6, 3, 3, 6, 6, 6, 6)))
    inconsistent = TransitionSemigroup(n=7, raw=raw, raw_set=frozenset(raw))
    monkeypatch.setattr(cli_module, "transition_semigroup", lambda d: inconsistent)
    path = os.path.join(tmp_path, "w7.dfa")
    with open(path, "w") as fh:
        fh.write(format_dfa(witness(7)))
    message = (
        "pair {1, 2} is colliding, first by 1 2 6 6 6 6 6, "
        "and focused onto 3, first by 6 3 3 6 6 6 6"
    )
    assert main(["phi", path]) == 1
    out = capsys.readouterr().out
    assert "FAIL semigroup is consistent: expected True, actual False\n" in out
    assert f"note structure_error: {message}\n" in out
    assert "overall: FAIL" in out
    assert main(["--json", "phi", path]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is False
    assert doc["assertions"][-1] == {
        "name": "semigroup is consistent",
        "expected": True,
        "actual": False,
        "pass": False,
    }
    assert doc["details"] == {"structure_error": message}
    assert list(doc["timings"]) == ["closure", "pairs", "embedding", "total"]


def test_suffix_free_pass_and_fail(tmp_path, capsys):
    good = os.path.join(tmp_path, "abstar.dfa")
    with open(good, "w") as fh:
        fh.write(AB_STAR)
    assert main(["suffix-free", good]) == 0
    out, _ = capsys.readouterr()
    assert "PASS language is suffix-free" in out

    bad = os.path.join(tmp_path, "astar.dfa")
    with open(bad, "w") as fh:
        fh.write(A_STAR)
    assert main(["suffix-free", bad]) == 1
    out, _ = capsys.readouterr()
    assert "FAIL language is suffix-free" in out
    assert "is a proper suffix" in out or "its suffix" in out
    assert "overall: FAIL" in out


def test_suffix_free_spaces_multi_character_letter_names(tmp_path, capsys):
    # with a letter name longer than one character, the words print
    # their letters apart: "ab ab", not the ambiguous "abab"
    path = os.path.join(tmp_path, "multi.dfa")
    with open(path, "w") as fh:
        fh.write("n=3 letters=ab,c initial=0 finals=1,2\nab: 1 2 2\nc: 2 2 2\n")
    assert main(["suffix-free", path]) == 1
    out, _ = capsys.readouterr()
    assert "both ab ab and its suffix ab are accepted" in out


def test_suffix_free_times_to_the_microsecond(tmp_path, capsys):
    # a check this small takes well under a millisecond, which three
    # decimals would print as 0.000s
    path = os.path.join(tmp_path, "abstar.dfa")
    with open(path, "w") as fh:
        fh.write(AB_STAR)
    assert main(["suffix-free", path]) == 0
    timing = capsys.readouterr().out.splitlines()[-1]
    assert re.fullmatch(r"# timing total: \d+\.\d{6}s", timing)


def test_search_four_emits_json_and_succeeds(capsys):
    code = main(["search", "--n", "4"])
    out, _ = capsys.readouterr()
    assert code == 0
    doc = search_doc(out)
    assert doc["n"] == 4
    assert doc["target"] == 13
    assert doc["max_size_found"] == 13
    assert doc["uniqueness_confirmed"] is True
    assert doc["others"] == []


def recorded_searches(monkeypatch) -> list:
    # the results of the searches the CLI runs, for their timing fields
    results = []

    def recording(*args, **kwargs):
        results.append(search_max(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli_module, "search_max", recording)
    return results


def test_search_prints_one_timing_line_per_level(monkeypatch, capsys):
    # the comments after the report give the statistics' timing fields,
    # to the microsecond, and the whole command's total; judging happens
    # inside the level's wall time, the levels inside the call's and
    # the call inside the command's
    results = recorded_searches(monkeypatch)
    assert main(["search", "--n", "4", "--target", "1"]) == 1
    doc, timings = search_timing(capsys.readouterr().out)
    assert doc == search_max(4, 1).to_json()
    assert doc["statistics"]["level_sizes"] == [6, 25, 28, 9]
    [stats] = [r.stats for r in results]
    walls, judges = stats.level_wall_s, stats.level_judge_s
    assert [timings[f"level {k}"] for k in range(1, 5)] == [round(w, 6) for w in walls]
    assert [timings[f"level {k} judging"] for k in range(1, 5)] == [round(j, 6) for j in judges]
    assert timings["search"] == round(stats.wall_time_s, 6)
    assert all(j <= w for w, j in zip(walls, judges))
    assert sum(walls) <= stats.wall_time_s <= timings["total"]


def test_json_search_is_one_document_with_the_level_timings(monkeypatch, capsys):
    # the report's timing fields and the command's total sit in one
    # top-level timings object after the report, not in its statistics
    results = recorded_searches(monkeypatch)
    assert main(["--json", "search", "--n", "4", "--target", "1"]) == 1
    doc = json.loads(capsys.readouterr().out)
    timings = doc.pop("timings")
    assert doc == search_max(4, 1).to_json()
    assert list(timings) == search_timing_keys(4)
    [result] = results
    assert {key: timings[key] for key in result.timings} == result.timings
    assert result.stats.wall_time_s <= timings["total"]


def test_search_reporting_an_other_past_255_members_exits_one(monkeypatch, capsys):
    # the level-1 branch of --n 6 --target 500 --max-letters 2 whose
    # extensions close to 545 maps, searched alone instead of all 70
    branch = (bytes.fromhex("050101020305"),)
    monkeypatch.setattr(search_module, "initial_level", lambda n: (branch,))
    argv = ["search", "--n", "6", "--target", "545", "--max-letters", "2"]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert not err.startswith("error: ")
    others = search_doc(out)["others"]
    assert [(o["kind"], o["size"], o["level"]) for o in others] == [("other", 545, 2)]


def test_search_range_is_a_usage_error(capsys):
    assert main(["search", "--n", "3"]) == 2
    _, err = capsys.readouterr()
    assert "4 <= n <= 7" in err


def test_search_has_no_resume_option(capsys):
    # an unknown option is argparse's usage error, not a traceback
    with pytest.raises(SystemExit) as raised:
        main(["search", "--n", "4", "--resume", "x"])
    assert raised.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments: --resume x" in err
    assert "Traceback" not in err


def test_search_has_no_threads_option(capsys):
    # --threads is no option of sfsyn, so argparse reports a usage error,
    # not a traceback, and names the flag rather than its value
    with pytest.raises(SystemExit) as raised:
        main(["--threads", "2", "search", "--n", "4"])
    assert raised.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: sfsyn")
    assert "--threads" in err
    assert "Traceback" not in err


def test_search_target_below_one_is_a_usage_error(capsys):
    assert main(["search", "--n", "4", "--target", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: target must be positive\n"


@pytest.fixture(autouse=True)
def restore_package_logger():
    # main() leaves its stderr handler on the sfsyn logger; drop it after
    # each test, so no later test logs into a closed capture stream
    logger = logging.getLogger("sfsyn")
    handlers, propagate, level = logger.handlers[:], logger.propagate, logger.level
    yield
    logger.handlers[:] = handlers
    logger.propagate = propagate
    logger.setLevel(level)


def run_cli(*argv: str, module: str = "sfsyn.cli") -> subprocess.CompletedProcess:
    # a fresh interpreter, as the command is run from a shell
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", module, *argv],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )


# one info line per level: its size, its open branches' filtered
# (branch, letter) pairs, the outcome census, the level's wall time,
# the time spent judging its semiautomata and the rest, spent building
# the next level or deciding the letter cap
LEVEL_LINE = re.compile(
    r"level (\d+): (\d+) semiautomata, (\d+) extension candidates "
    r"\((\d+) rejected, (\d+) pruned, (\d+) terminal, (\d+) open\) in (\d+\.\d{3}) s "
    r"\(judging (\d+\.\d{3}) s, next level (\d+\.\d{3}) s\)"
)
FOUR_STATE_LEVEL = "level 1: 6 semiautomata, 0 extension candidates (0 rejected, 1 pruned, 5 terminal, 0 open) in "
# a fresh search logs level 1 once built: its classes, the pool maps
# they partition, and the seconds taken
BUILT_LINE = re.compile(r"level 1 built: (\d+) classes of (\d+) pool maps in (\d+\.\d{3}) s")
FOUR_STATE_BUILT = "level 1 built: 6 classes of 11 pool maps in "


def assert_four_state_progress(stderr):
    built, level = stderr.rstrip("\n").split("\n")
    assert built.startswith(FOUR_STATE_BUILT)
    assert BUILT_LINE.fullmatch(built)
    assert level.startswith(FOUR_STATE_LEVEL)
    assert LEVEL_LINE.fullmatch(level)


def test_log_level_info_shows_the_search_progress():
    quiet = run_cli("search", "--n", "4")
    loud = run_cli("--log-level", "info", "search", "--n", "4")
    assert quiet.returncode == loud.returncode == 0
    assert quiet.stderr == ""
    assert_four_state_progress(loud.stderr)
    expected = search_max(4).to_json()
    assert search_doc(quiet.stdout) == expected
    assert search_doc(loud.stdout) == expected


def test_the_package_runs_as_a_module(capsys):
    # python -m sfsyn, from a checkout with src on the path and no install
    assert run_cli("--help", module="sfsyn").returncode == 0
    ran = run_cli("search", "--n", "4", module="sfsyn")
    assert ran.returncode == main(["search", "--n", "4"]) == 0
    body = capsys.readouterr().out.partition("\n# timing ")[0]
    assert ran.stdout.partition("\n# timing ")[0] == body


def test_log_level_works_in_process(capfd):
    # the test runner's handlers sit on the root logger, where
    # logging.basicConfig would have done nothing; a second main()
    # replaces the handler rather than stacking another
    expected = search_max(4).to_json()
    for _ in range(2):
        assert main(["--log-level", "info", "search", "--n", "4"]) == 0
        out, err = capfd.readouterr()
        assert_four_state_progress(err)
        assert search_doc(out) == expected
    assert main(["search", "--n", "4"]) == 0
    assert capfd.readouterr().err == ""
    assert [h.get_name() for h in logging.getLogger("sfsyn").handlers] == ["sfsyn.cli"]


def test_log_level_info_reports_each_level_census():
    # the census lines add up to the level sizes and the report's
    # counts, and switching them on changes neither stdout nor the
    # default stderr
    argv = ("search", "--n", "4", "--target", "12")
    quiet = run_cli(*argv)
    loud = run_cli("--log-level", "info", *argv)
    assert quiet.returncode == loud.returncode == 1
    assert quiet.stderr == ""
    doc = search_doc(loud.stdout)
    assert search_doc(quiet.stdout) == doc == search_max(4, 12).to_json()
    built, *rest = loud.stderr.splitlines()
    assert BUILT_LINE.fullmatch(built)
    lines = [LEVEL_LINE.fullmatch(line) for line in rest]
    assert all(lines)
    rows = [[int(g) for g in m.groups()[:7]] for m in lines]
    stats = doc["statistics"]
    assert [row[0] for row in rows] == list(range(1, len(stats["level_sizes"]) + 1))
    assert [row[1] for row in rows] == stats["level_sizes"]
    for row in rows:
        assert sum(row[3:]) == row[1]
    # judging and building the next level split the level's wall time;
    # each of the three is rounded to the millisecond
    for m in lines:
        wall, judging, next_level = (float(g) for g in m.groups()[7:])
        assert abs(judging + next_level - wall) <= 0.002
    rejected, pruned, terminal, opened = (sum(col) for col in zip(*(row[3:] for row in rows)))
    assert rejected == stats["rejected_selections"]
    assert pruned == stats["pruned_selections"]
    assert terminal == stats["terminal_selections"]
    assert (pruned, opened) == (21, 45)


def test_default_log_level_writes_warnings_as_bare_messages():
    # the letter cap warning reads as it did before the flag existed;
    # its count is the filtered (branch, letter) pairs of the capped level
    done = run_cli("search", "--n", "4", "--target", "5", "--max-letters", "1")
    assert done.returncode == 1
    assert done.stderr == (
        "letter cap 1 reached with 45 candidates unexplored; "
        "the uniqueness conclusion is not established\n"
    )
    quiet = run_cli("--log-level", "error", "search", "--n", "4", "--target", "5", "--max-letters", "1")
    assert quiet.stderr == ""
    assert search_doc(quiet.stdout)["statistics"]["capped"] is True


@pytest.mark.parametrize(
    "argv, first, code",
    [
        # some 430 kB of dot, past a 64 KiB pipe buffer, so the command
        # is still writing when the reader goes after one line
        (("witness", "--n", "4000", "--format", "dot"), "digraph dfa {\n", 0),
        # readers that go before the interpreter has even started up, so
        # before any report is written, whatever the pipe's buffer; one
        # verdict passes, one fails
        (("--json", "verify-bound", "--n", "4"), None, 0),
        (("--json", "suffix-free", "{a_star}"), None, 1),
    ],
    ids=["witness-after-one-line", "passed-verdict", "failed-verdict"],
)
def test_a_reader_closing_the_pipe_early_leaves_no_traceback(tmp_path, argv, first, code):
    # the command stops quietly, with its verdict's exit code
    path = os.path.join(tmp_path, "astar.dfa")
    with open(path, "w") as fh:
        fh.write(A_STAR)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = [a.format(a_star=path) for a in argv]
    with subprocess.Popen(
        [sys.executable, "-m", "sfsyn.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    ) as child:
        if first is not None:
            assert child.stdout.readline() == first
        child.stdout.close()
        err = child.stderr.read()
        assert child.wait() == code
    assert "Traceback" not in err
    assert err == ""


@pytest.mark.parametrize("command", ["phi", "suffix-free"])
def test_undecodable_dfa_file_is_a_usage_error(tmp_path, capsys, command):
    path = os.path.join(tmp_path, "latin1.dfa")
    with open(path, "wb") as fh:
        fh.write("n=3 letters=\u00e4 initial=0 finals=1\n".encode("latin-1"))
    assert main([command, path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {path}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["phi", "suffix-free"])
def test_bad_finals_field_is_a_usage_error(tmp_path, capsys, command):
    path = os.path.join(tmp_path, "finals.dfa")
    with open(path, "w") as fh:
        fh.write("n=3 letters=a initial=0 finals=1,,2\na: 1 2 2\n")
    assert main([command, path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {path}: header finals must be comma-separated integers, got '1,,2'\n"
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("n=3 letters=,b initial=0 finals=1\n: 1 1 2\nb: 2 1 2\n", "empty letter name in ',b'"),
        ("n=3 letters=a initial=0 finals=1 finals=0\na: 1 2 2\n", "repeated header field 'finals'"),
        ("n=3 letters=a initial=0 finals=1 final=0\na: 1 2 2\n", "unknown header field 'final'"),
        ("n=0 letters=a initial=0 finals=\na: \n", "header n must be at least 1, got 0"),
        ("n=-3 letters=a initial=0 finals=\na: 1 2 2\n", "header n must be at least 1, got -3"),
        ("n=3 letters=a initial=+0 finals=0_1\na: 0_1 +2 2\n", "header counts must be integers"),
        ("n=\u0663 letters=a initial=0 finals=1\na: 1 2 2\n", "header counts must be integers"),
    ],
)
def test_malformed_dfa_header_is_a_usage_error(tmp_path, capsys, text, message):
    # the first three were accepted silently before: the empty letter
    # made the empty word a violation, and the repeated finals field kept
    # its last value; a state count below one was reported by the row or
    # map it upset; int() took a sign, an underscore and an Arabic-Indic
    # digit, none of which format_dfa writes
    path = os.path.join(tmp_path, "header.dfa")
    with open(path, "w") as fh:
        fh.write(text)
    assert main(["suffix-free", path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {path}: {message}\n"


def test_missing_file_is_a_usage_error(tmp_path, capsys):
    path = os.path.join(tmp_path, "nope.dfa")
    assert main(["phi", path]) == 2
    capsys.readouterr()
    assert main(["suffix-free", path]) == 2
    capsys.readouterr()


def test_reports_are_deterministic(tmp_path, capsys):
    # every command, in text and in JSON, writes the same bytes twice
    # but for its timings: the "# timing" lines after a text report, the
    # "timings" object of a JSON one
    d = next(d for d in draw_seven_state_dfas() if transition_semigroup(d).pair_scan.colliding)
    colliding = os.path.join(tmp_path, "colliding7.dfa")
    ab_star = os.path.join(tmp_path, "abstar.dfa")
    for path, text in ((colliding, format_dfa(d)), (ab_star, AB_STAR)):
        with open(path, "w") as fh:
            fh.write(text)
    commands = [
        (["witness", "--n", "5"], 0),
        (["witness", "--n", "5", "--format", "dot"], 0),
        (["verify-bound", "--n", "5"], 0),
        (["verify-bound", "--n", "7"], 0),
        (["phi", colliding], 0),
        (["letters", "--n", "5"], 0),
        (["suffix-free", ab_star], 0),
        (["search", "--n", "4"], 0),
        (["search", "--n", "4", "--target", "1"], 1),
    ]

    def run(argv: list[str], code: int) -> str:
        assert main(argv) == code
        out = capsys.readouterr().out
        if argv[0] != "--json":
            return "".join(line for line in out.splitlines(True) if not line.startswith("# timing"))
        doc = json.loads(out)
        if argv[1] != "witness":
            assert list(doc)[-1] == "timings"
            del doc["timings"]
        return json.dumps(doc, indent=2)

    for argv, code in commands:
        for args in (argv, ["--json", *argv]):
            assert run(args, code) == run(args, code), args
    assert main(["phi", colliding]) == 0
    assert "PASS colliding pair forces a strict gap" in capsys.readouterr().out
