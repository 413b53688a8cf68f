"""Command-line surface: witness emission, bound verification, the
embedding checker, the exhaustive search, letter-necessity evidence,
and a bare suffix-freeness test.

Every command is deterministic for fixed inputs and flags.  The five
report commands each return a report that _report writes: the body,
then the timings (the command's phases and its total) as "# timing"
lines after the text or one "timings" object in the JSON, so the body
compares byte for byte.  Exit codes: 0 pass, 1 fail, 2 usage error.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field

from .collisions import StructureError, checked_scan
from .dfa import (
    Dfa,
    format_dfa,
    is_minimal,
    parse_dfa,
    renumber_initial_empty,
    suffix_free_violation,
    to_dot,
    transition_semigroup,
    witness,
)
from .injection import CaseExhaustionError, strict_bound_witness, verify_injective
from .search import DEFAULT_MAX_LETTERS, SearchResult, search_max
from .semigroup import MAX_STATES, closure, wsf_bound


class UsageError(Exception):
    """Bad arguments or unreadable input; maps to exit code 2."""


@dataclass(frozen=True)
class Assertion:
    name: str
    expected: object
    actual: object
    ok: bool


def same(name: str, expected, actual) -> Assertion:
    return Assertion(name, expected, actual, expected == actual)


@dataclass
class VerificationReport:
    """One command run: what was asked, what was checked, how long it
    took.  Overall pass means every assertion passed, and the process
    exit status follows it."""

    command: str
    inputs: dict
    assertions: list[Assertion] = field(default_factory=list)
    details: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(a.ok for a in self.assertions)

    def to_json(self) -> dict:
        doc = {
            "command": self.command,
            "inputs": self.inputs,
            "assertions": [
                {
                    "name": a.name,
                    "expected": _plain(a.expected),
                    "actual": _plain(a.actual),
                    "pass": a.ok,
                }
                for a in self.assertions
            ],
            "passed": self.passed,
        }
        if self.details:
            doc["details"] = self.details
        return doc

    def render(self) -> str:
        lines = [f"command: {self.command}"]
        if self.inputs:
            lines.append(
                "inputs: " + " ".join(f"{k}={v}" for k, v in self.inputs.items())
            )
        for a in self.assertions:
            mark = "PASS" if a.ok else "FAIL"
            lines.append(f"{mark} {a.name}: expected {a.expected}, actual {a.actual}")
        for key, value in self.details.items():
            lines.append(f"note {key}: {value}")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


@contextmanager
def _timed(report: VerificationReport, phase: str) -> Iterator[None]:
    # one "# timing" entry: the wall time of the phase in the with block
    start = time.perf_counter()
    yield
    report.timings[phase] = time.perf_counter() - start


def _plain(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def _write(text: str) -> None:
    # a reader that closes the pipe early ends the output, not the
    # command: stdout then points at os.devnull, as the Python docs on
    # SIGPIPE advise, so the flush at exit cannot fail again, and the
    # command still returns its verdict's exit code
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _report(args) -> int:
    # the one way a report command ends: its body, its phases' timings
    # and the whole command's total, then its verdict's exit code
    started = time.perf_counter()
    report = args.report(args)
    timings = {**report.timings, "total": time.perf_counter() - started}
    if args.json:
        _write(json.dumps({**report.to_json(), "timings": timings}, indent=2) + "\n")
    else:
        _write(report.render() + "".join(f"# timing {k}: {v:.6f}s\n" for k, v in timings.items()))
    return 0 if report.passed else 1


def _load_dfa(path: str) -> Dfa:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e}") from None
    except UnicodeDecodeError as e:
        raise UsageError(f"{path}: {e}") from None
    try:
        return parse_dfa(text)
    except ValueError as e:
        raise UsageError(f"{path}: {e}") from None


def _word(w: tuple[str, ...], letters: Sequence[str]) -> str:
    # the letter names of a word, joined with nothing when every letter
    # of the DFA has a one-character name and with single spaces
    # otherwise; empty words print as the conventional epsilon name
    if not w:
        return "(empty)"
    return ("" if all(len(a) == 1 for a in letters) else " ").join(w)


def _not_suffix_free(name: str, d: Dfa, violation: tuple[tuple[str, ...], ...]) -> Assertion:
    # the failed assertion for an accepted word w + v whose suffix v is
    # accepted too
    w, v = violation
    return Assertion(
        name,
        "no accepted word is a proper suffix of another",
        f"both {_word(w + v, d.letters)} and its suffix {_word(v, d.letters)} are accepted",
        False,
    )


# ----------------------------------------------------------- subcommands


def cmd_witness(args) -> int:
    if args.n < 4:
        raise UsageError("the witness family starts at n=4")
    d = witness(args.n)
    text = to_dot(d) if args.format == "dot" else format_dfa(d)
    if args.json:
        doc = {
            "command": "witness",
            "inputs": {"n": args.n, "format": args.format},
            "dfa": text,
        }
        text = json.dumps(doc, indent=2) + "\n"
    _write(text)
    return 0


def cmd_verify_bound(args) -> VerificationReport:
    if args.n < 4:
        raise UsageError("the bound is defined from n=4 up")
    if args.n > MAX_STATES:
        raise UsageError(f"closure works on at most {MAX_STATES} states, got n={args.n}")
    if args.n > 8 and not args.allow_slow:
        raise UsageError(
            f"n={args.n} closes a semigroup of {wsf_bound(args.n)} elements; "
            "pass --allow-slow to run it anyway"
        )
    if args.n > 8:
        print(f"warning: n={args.n} may take a long time", file=sys.stderr)
    report = VerificationReport(command="verify-bound", inputs={"n": args.n})
    d = witness(args.n)
    with _timed(report, "closure"):
        sg = transition_semigroup(d)
    report.assertions.append(
        same("semigroup size reaches the bound", wsf_bound(args.n), sg.size)
    )
    report.assertions.append(
        same("witness language is suffix-free", True, suffix_free_violation(d) is None)
    )
    report.assertions.append(same("witness automaton is minimal", True, is_minimal(d)))
    with _timed(report, "pairs"):
        colliding = checked_scan(sg).colliding.bit_count()
    report.assertions.append(same("no interior pair collides", 0, colliding))
    if args.n >= 7:
        with _timed(report, "embedding"):
            inj = verify_injective(sg)
        report.assertions.append(
            same("embedding is injective on the witness semigroup", True, inj.passed)
        )
        report.details["case_counts"] = dict(sorted(inj.case_counts.items()))
    return report


def cmd_phi(args) -> VerificationReport:
    d = _load_dfa(args.dfa)
    if d.n < 7:
        raise UsageError("the embedding needs at least 7 states")
    if d.n > MAX_STATES:
        raise UsageError(f"the embedding works on at most {MAX_STATES} states, got {d.n}")
    report = VerificationReport(command="phi", inputs={"dfa": args.dfa, "n": d.n})
    violation = suffix_free_violation(d)
    if violation is not None:
        report.assertions.append(_not_suffix_free("input language is suffix-free", d, violation))
        return report
    report.assertions.append(
        same("input language is suffix-free", True, True)
    )
    minimal = is_minimal(d)
    report.assertions.append(same("input automaton is minimal", True, minimal))
    if not minimal:
        return report
    # the pair and embedding layers assume initial state 0 and empty
    # state n-1; renumbering leaves the language unchanged
    try:
        d = renumber_initial_empty(d)
    except ValueError as e:
        raise UsageError(str(e)) from None
    with _timed(report, "closure"):
        sg = transition_semigroup(d)
    # the pair scan runs here, before the embedding reads its cached
    # result, so that each phase's timing holds only its own work
    with _timed(report, "pairs"):
        colliding = bool(checked_scan(sg).colliding)
    # a semigroup the embedding refuses, or a strict-gap witness that
    # fails its own checks, is a failed assertion with the message under
    # details, not a traceback
    with _timed(report, "embedding"):
        try:
            inj = verify_injective(sg)
        except StructureError as e:
            report.assertions.append(same("semigroup is consistent", True, False))
            report.details["structure_error"] = str(e)
            return report
        try:
            gap, gap_error = strict_bound_witness(sg), None
        except CaseExhaustionError as e:
            gap, gap_error = None, str(e)
    report.assertions.append(
        same("every image collapses its interior", True, inj.all_images_collapsing)
    )
    report.assertions.append(same("images are pairwise distinct", True, inj.images_distinct))
    report.assertions.append(same("every image inverts back", True, inj.round_trips))
    report.assertions.append(
        Assertion("semigroup size within the bound", f"<= {inj.bound}", inj.size, inj.within_bound)
    )
    if inj.counterexample:
        report.details["counterexample"] = inj.counterexample
    report.details["case_counts"] = dict(sorted(inj.case_counts.items()))
    if colliding:
        report.assertions.append(
            Assertion(
                "colliding pair forces a strict gap",
                "a collapsing transformation no element maps to",
                "found" if gap is not None else "missing",
                gap is not None,
            )
        )
        if gap is not None:
            report.details["gap_witness"] = str(gap.images)
        else:
            report.details["gap_error"] = gap_error
    return report


def cmd_search(args) -> SearchResult:
    try:
        return search_max(args.n, args.target, max_letters=args.max_letters)
    except ValueError as e:
        raise UsageError(str(e)) from None


def cmd_letters(args) -> VerificationReport:
    if not 5 <= args.n <= 7:
        raise UsageError("letter-necessity evidence covers 5 <= n <= 7")
    d = witness(args.n)
    bound = wsf_bound(args.n)
    report = VerificationReport(command="letters", inputs={"n": args.n})
    for i, name in enumerate(d.letters):
        rest = [t for j, t in enumerate(d.delta) if j != i]
        size = closure(rest).size
        report.assertions.append(
            Assertion(
                f"dropping letter {name} shrinks the semigroup",
                f"size below {bound}",
                size,
                size < bound,
            )
        )
    return report


def cmd_suffix_free(args) -> VerificationReport:
    d = _load_dfa(args.dfa)
    report = VerificationReport(command="suffix-free", inputs={"dfa": args.dfa})
    violation = suffix_free_violation(d)
    if violation is None:
        report.assertions.append(same("language is suffix-free", True, True))
    else:
        report.assertions.append(_not_suffix_free("language is suffix-free", d, violation))
    return report


# ------------------------------------------------------------- the parser


def _global_options() -> argparse.ArgumentParser:
    # the options ahead of the subcommand, on a parser of their own so
    # that _parse can look up an option they do not include
    parser = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    parser.add_argument("--json", action="store_true", help="emit reports as JSON")
    levels = ("debug", "info", "warning", "error")
    parser.add_argument("--log-level", choices=levels, default="warning", help="stderr log threshold")
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfsyn",
        description="suffix-free syntactic complexity toolkit",
        parents=[_global_options()],
        exit_on_error=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("witness", help="emit the five-letter witness DFA")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("dfa", "dot"), default="dfa")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("verify-bound", help="check the witness reaches the bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--allow-slow", action="store_true", help="permit n beyond the default cap of 8"
    )
    p.set_defaults(func=_report, report=cmd_verify_bound)

    p = sub.add_parser("phi", help="run the embedding over a DFA's semigroup")
    p.add_argument("dfa", help="path to a DFA file")
    p.set_defaults(func=_report, report=cmd_phi)

    p = sub.add_parser("search", help="exhaustive maximality search")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--target", type=int, default=None)
    p.add_argument("--max-letters", type=int, default=DEFAULT_MAX_LETTERS)
    p.set_defaults(func=_report, report=cmd_search)

    p = sub.add_parser("letters", help="evidence that every witness letter is needed")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_report, report=cmd_letters)

    p = sub.add_parser("suffix-free", help="test a DFA file for suffix-freeness")
    p.add_argument("dfa", help="path to a DFA file")
    p.set_defaults(func=_report, report=cmd_suffix_free)

    return parser


def _parse(parser: argparse.ArgumentParser, argv) -> argparse.Namespace:
    # argparse's own usage errors, except that an unknown option ahead
    # of the subcommand, whose value argparse would report as a bad
    # subcommand, is named itself
    try:
        return parser.parse_args(argv)
    except argparse.ArgumentError as e:
        if e.argument_name == "command":
            try:
                _, rest = _global_options().parse_known_args(argv)
            except argparse.ArgumentError:
                rest = []
            if rest and rest[0].startswith("-"):
                parser.error(f"unrecognized arguments: {rest[0]}")
        parser.error(str(e))


def main(argv=None) -> int:
    parser = build_parser()
    args = _parse(parser, argv)
    # one handler on the package logger, replacing any a previous main()
    # attached; bare messages, as Python's last-resort handler wrote them
    logger = logging.getLogger("sfsyn")
    for old in [h for h in logger.handlers if h.get_name() == "sfsyn.cli"]:
        logger.removeHandler(old)
    handler = logging.StreamHandler(sys.stderr)
    handler.set_name("sfsyn.cli")
    handler.setFormatter(logging.Formatter("%(message)s"))
    logger.addHandler(handler)
    logger.setLevel(args.log_level.upper())
    logger.propagate = False
    try:
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
