"""Command-line surface: exit codes, report rendering, JSON shapes."""
import json
import logging
import os
import subprocess
import sys

import pytest

from sfsyn.cli import main
from sfsyn.dfa import format_dfa, parse_dfa, relabel, witness
from sfsyn.search import search_max

# ab* is suffix-free; a* accepts the empty word and everything above it
AB_STAR = "n=3 letters=a,b initial=0 finals=1\na: 1 2 2\nb: 2 1 2\n"
A_STAR = "n=2 letters=a initial=0 finals=0\na: 0 1\n"


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


def test_verify_bound_guards(capsys):
    assert main(["verify-bound", "--n", "3"]) == 2
    capsys.readouterr()
    # very large closures need an explicit opt-in
    assert main(["verify-bound", "--n", "9"]) == 2
    _, err = capsys.readouterr()
    assert "--allow-slow" in err


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


def test_search_four_emits_json_and_succeeds(capsys):
    code = main(["search", "--n", "4"])
    out, _ = capsys.readouterr()
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 4
    assert doc["target"] == 13
    assert doc["max_size_found"] == 13
    assert doc["uniqueness_confirmed"] is True
    assert doc["others"] == []


def test_search_checkpoints_via_environment(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SFSYN_CHECKPOINT_DIR", str(tmp_path))
    code = main(["search", "--n", "4"])
    capsys.readouterr()
    assert code == 0
    assert "level_01.txt" in os.listdir(tmp_path)


def test_search_range_is_a_usage_error(capsys):
    assert main(["search", "--n", "3"]) == 2
    _, err = capsys.readouterr()
    assert "4 <= n <= 7" in err


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


def run_cli(*argv: str) -> subprocess.CompletedProcess:
    # a fresh interpreter, as the command is run from a shell
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "sfsyn.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )


def without_timing(doc: dict) -> dict:
    del doc["statistics"]["wall_time_s"]
    return doc


def test_log_level_info_shows_the_search_progress():
    quiet = run_cli("search", "--n", "4")
    loud = run_cli("--log-level", "info", "search", "--n", "4")
    assert quiet.returncode == loud.returncode == 0
    assert quiet.stderr == ""
    assert loud.stderr == "level 1: 6 semiautomata, 0 extension candidates\n"
    expected = search_max(4).to_json(include_timing=False)
    assert without_timing(json.loads(quiet.stdout)) == expected
    assert without_timing(json.loads(loud.stdout)) == expected


def test_log_level_works_in_process(capfd):
    # the test runner's handlers sit on the root logger, where
    # logging.basicConfig would have done nothing; a second main()
    # replaces the handler rather than stacking another
    expected = search_max(4).to_json(include_timing=False)
    for _ in range(2):
        assert main(["--log-level", "info", "search", "--n", "4"]) == 0
        out, err = capfd.readouterr()
        assert err == "level 1: 6 semiautomata, 0 extension candidates\n"
        assert without_timing(json.loads(out)) == expected
    assert main(["search", "--n", "4"]) == 0
    assert capfd.readouterr().err == ""
    assert [h.get_name() for h in logging.getLogger("sfsyn").handlers] == ["sfsyn.cli"]


def test_default_log_level_writes_warnings_as_bare_messages():
    # the letter cap warning reads as it did before the flag existed
    done = run_cli("search", "--n", "4", "--target", "5", "--max-letters", "1")
    assert done.returncode == 1
    assert done.stderr == (
        "letter cap 1 reached with 26 candidates unexplored; "
        "the uniqueness conclusion is not established\n"
    )
    quiet = run_cli("--log-level", "error", "search", "--n", "4", "--target", "5", "--max-letters", "1")
    assert quiet.stderr == ""
    assert json.loads(quiet.stdout)["statistics"]["capped"] is True


def test_search_resume_from_missing_file_is_a_usage_error(tmp_path, capsys):
    path = os.path.join(tmp_path, "nope.txt")
    assert main(["search", "--n", "4", "--resume", path]) == 2
    _, err = capsys.readouterr()
    assert err.startswith("error: ")
    assert "nope.txt" in err


def test_search_resume_from_malformed_header_is_a_usage_error(tmp_path, capsys):
    path = os.path.join(tmp_path, "level_01.txt")
    with open(path, "w") as fh:
        fh.write("# sfsyn-pointed-search level=1\n")
    assert main(["search", "--n", "4", "--resume", path]) == 2
    _, err = capsys.readouterr()
    assert err.startswith("error: ")
    assert "n= and level=" in err


def test_search_resume_from_full_permutation_checkpoint_is_a_usage_error(tmp_path, capsys):
    # a level written by the earlier search, whose classes ran over
    # every state permutation, is refused rather than resumed in part
    path = os.path.join(tmp_path, "level_01.txt")
    with open(path, "w") as fh:
        fh.write("# sfsyn-search level=1 n=4\n040100000102\n")
    assert main(["search", "--n", "4", "--resume", path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")
    assert "level_01.txt" in err
    assert "Traceback" not in err


def test_search_resume_with_a_letter_outside_the_pool_is_a_usage_error(tmp_path, capsys):
    # the semiconstant 3 1 2 3 is admissible but never a search letter
    path = os.path.join(tmp_path, "level_01.txt")
    with open(path, "w") as fh:
        fh.write("# sfsyn-pointed-search level=1 n=4\n040103010203\n")
    assert main(["search", "--n", "4", "--resume", path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")
    assert "not in the search pool" in err
    assert "Traceback" not in err


def test_missing_file_is_a_usage_error(tmp_path, capsys):
    path = os.path.join(tmp_path, "nope.dfa")
    assert main(["phi", path]) == 2
    capsys.readouterr()
    assert main(["suffix-free", path]) == 2
    capsys.readouterr()


def test_reports_are_deterministic(capsys):
    def run() -> str:
        main(["verify-bound", "--n", "5"])
        out, _ = capsys.readouterr()
        return "\n".join(
            line for line in out.splitlines() if not line.startswith("# timing")
        )

    assert run() == run()
