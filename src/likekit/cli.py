"""Command-line front end.

Exit codes follow one convention across subcommands: 0 for a positive
verdict (match, equivalent, witness found, accepted), 1 for the negative
counterpart, 2 for unusable input, 3 for hitting a search budget, an
expansion cap, a gadget size ceiling, a ``--max-len`` cap that left the
search unfinished, or a ``simulate tm`` run that ``--max-steps`` or the run
ceiling cut off.
A reader that closes stdout early ends the run quietly with 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Callable

from .automata import (
    DEFAULT_STATE_BUDGET,
    SearchBudgetExceeded,
    SearchOutcome,
    find_separating_string,
    find_witness,
)
from .expression import (
    DEFAULT_EXPANSION_CAP,
    ExplosionCapError,
    LikeExpression,
    evaluate,
    parse_expression,
    render_expression,
    to_dot_depth1_dnf,
)
from .matcher import Text, as_text, match_greedy
from .normalize import normalize
from .pattern import Alphabet, parse_pattern, render_pattern, to_classical_regex
from .reductions import (
    TmSpec,
    _tm_gadget_patterns,
    _tm_gadget_tokens,
    encode_3sat,
    encode_majority,
    encode_tm,
    parse_dimacs,
    simulate_tm,
    tm_from_json,
)


# Sizes past these ceilings are refused with exit 3 before anything is
# built. A 3-CNF gadget takes about 1 KB per declared variable (13 MB at the
# ceiling). A machine gadget's tokens grow with the square of its tape and
# the fourth power of its alphabet: the tests' counter machine at 256 cells
# holds 1568554 tokens (22 MB), and a machine of 20 tape symbols about
# 205000 per cell, so the gadget's token count, known in closed form, has a
# ceiling of its own. So has its pattern count, since each pattern costs
# its records whatever its length: with 20 tape symbols the gadget holds
# 205308 short patterns at one cell (97 MB max RSS), with 13 symbols 41914
# (32 MB), and the counter machine's 8581 at 256 cells take 40 MB. A
# simulated run allocates the whole tape; unchecked, a --space of 10^6 took
# 128 MB before any limit. A run keeps every
# configuration once, as its block of the history: about 4 KB per step at
# 256 cells (5.2 KB with the JSON report) and 0.6-0.9 KB at 40, so its
# length ceiling holds a run at 256 cells to about 40 MB (52 MB with the
# JSON report). A run cut there is incomplete and exits 3. The majority
# pattern and its rendering grow linearly with --n, to about 35 MB of
# allocations at the ceiling.
_MAX_3SAT_VARIABLES = 10_000
_MAX_TM_SPACE = 256
_MAX_TM_TOKENS = 2_000_000
_MAX_TM_PATTERNS = 50_000
_MAX_TM_STEPS = 10_000
_MAX_MAJORITY_N = 2_000_000


class _GadgetTooLarge(RuntimeError):
    """A gadget or tape size past its ceiling."""

    def __init__(self, what: str, size: int, ceiling: int) -> None:
        super().__init__(f"{what} {size} is above the ceiling of {ceiling}")


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _parse_text(raw: str, args: argparse.Namespace) -> Text:
    if args.tokens:
        return tuple(raw.split())
    return as_text(raw)


def _join(t: Text, args: argparse.Namespace) -> str:
    return " ".join(t) if args.tokens else "".join(t)


def _load_alphabet(args: argparse.Namespace) -> Alphabet:
    if args.alphabet_file is not None:
        sigma = Alphabet.from_lines(Path(args.alphabet_file).read_text())
        # In character mode a longer symbol would print as text that reads
        # back as several symbols.
        if not args.tokens:
            for sym in sigma:
                if len(sym) > 1:
                    raise ValueError(
                        f"alphabet symbol {sym!r} is not one character; use --tokens"
                    )
        return sigma
    if args.tokens:
        return Alphabet(tuple(args.alphabet.split()))
    return Alphabet.from_chars(args.alphabet)


def _emit(args: argparse.Namespace, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps(payload))
    else:
        print(human)


def _search_and_report(
    args: argparse.Namespace,
    search: Callable[..., SearchOutcome],
    exprs: list[LikeExpression],
    found: str,
    exhausted: str,
    found_code: int,
) -> int:
    """Time one search over the alphabet of ``args`` and report it: a
    witness exits ``found_code``, a ``--max-len`` cut-off prints
    ``bounded`` and exits 3, an exhausted space exits the other code."""
    sigma = _load_alphabet(args)
    t0 = time.perf_counter()
    outcome = search(*exprs, sigma, budget=args.budget, max_len=args.max_len)
    elapsed = (time.perf_counter() - t0) * 1000
    if outcome.witness is not None:
        human, code = found + _join(outcome.witness, args), found_code
    elif not outcome.complete:
        human, code = "bounded", 3
    else:
        human, code = exhausted, 1 - found_code
    payload = {
        "verdict": outcome.verdict.value,
        "witness": list(outcome.witness) if outcome.witness is not None else None,
        "explored": outcome.explored,
        "elapsed_ms": round(elapsed, 3),
        "complete": outcome.complete,
        "atoms": outcome.atoms,
        "state_bits": outcome.state_bits,
    }
    _emit(args, payload, human)
    return code


def _cmd_match(args: argparse.Namespace) -> int:
    pattern = parse_pattern(args.pattern, args.escape, args.tokens)
    text = _parse_text(args.text, args)
    if args.alphabet is not None or args.alphabet_file is not None:
        sigma = _load_alphabet(args)
        for sym in text:
            if sym not in sigma:
                raise ValueError(f"text symbol {sym!r} not in the alphabet")
        for sym in pattern.literals():
            if sym not in sigma:
                raise ValueError(f"pattern symbol {sym!r} not in the alphabet")
    matched = match_greedy(pattern, text)
    _emit(args, {"matched": matched}, "match" if matched else "no match")
    return 0 if matched else 1


def _cmd_normalize(args: argparse.Namespace) -> int:
    pattern = normalize(parse_pattern(args.pattern, args.escape, args.tokens))
    out = render_pattern(pattern, args.escape, args.tokens)
    _emit(args, {"pattern": out}, out)
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    expr = parse_expression(args.expr, args.escape, args.tokens)
    value = evaluate(expr, _parse_text(args.text, args))
    _emit(args, {"matched": value}, "match" if value else "no match")
    return 0 if value else 1


def _cmd_dnf(args: argparse.Namespace) -> int:
    expr = parse_expression(args.expr, args.escape, args.tokens)
    sigma = _load_alphabet(args)
    dnf = to_dot_depth1_dnf(expr, sigma, cap=args.cap)
    if args.json:
        clauses = [
            [
                {
                    "pattern": render_pattern(sa.pattern, args.escape, args.tokens),
                    "positive": sa.positive,
                }
                for sa in clause
            ]
            for clause in dnf.clauses
        ]
        print(json.dumps({"clauses": clauses}))
    else:
        print(render_expression(dnf.to_expression(), args.escape, args.tokens))
    return 0


def _cmd_equiv(args: argparse.Namespace) -> int:
    exprs = [parse_expression(e, args.escape, args.tokens) for e in (args.e1, args.e2)]
    return _search_and_report(
        args, find_separating_string, exprs, "DIFFERENT: ", "EQUIVALENT", 1
    )


def _cmd_nonempty(args: argparse.Namespace) -> int:
    exprs = [parse_expression(args.expr, args.escape, args.tokens)]
    return _search_and_report(args, find_witness, exprs, "", "empty", 0)


def _emit_gadget(
    args: argparse.Namespace, expr: LikeExpression, sigma: Alphabet
) -> int:
    """Print a gadget expression in token mode, and write its alphabet to
    ``--alphabet-out`` when one is given."""
    if args.alphabet_out is not None:
        Path(args.alphabet_out).write_text(
            "".join(sym + "\n" for sym in sigma.symbols)
        )
    rendered = render_expression(expr, tokens=True)
    _emit(
        args,
        {"expression": rendered, "alphabet": list(sigma.symbols)},
        rendered,
    )
    return 0


def _cmd_reduce_3sat(args: argparse.Namespace) -> int:
    formula = parse_dimacs(_read_source(args.dimacs))
    if formula.n_vars > _MAX_3SAT_VARIABLES:
        raise _GadgetTooLarge("variable count", formula.n_vars, _MAX_3SAT_VARIABLES)
    return _emit_gadget(args, *encode_3sat(formula))


def _cmd_reduce_majority(args: argparse.Namespace) -> int:
    if args.n > _MAX_MAJORITY_N:
        raise _GadgetTooLarge("--n", args.n, _MAX_MAJORITY_N)
    pattern = encode_majority(args.n)
    out = render_pattern(pattern)
    _emit(args, {"pattern": out}, out)
    return 0


def _load_machine(args: argparse.Namespace) -> tuple[TmSpec, tuple[str, ...]]:
    """The machine of ``--machine`` and the input word of ``--input``, once
    ``--space`` is known to be under its ceiling."""
    spec = tm_from_json(_read_source(args.machine))
    if args.space > _MAX_TM_SPACE:
        raise _GadgetTooLarge("--space", args.space, _MAX_TM_SPACE)
    return spec, tuple(args.input.split())


def _cmd_reduce_tm(args: argparse.Namespace) -> int:
    spec, word = _load_machine(args)
    tokens = _tm_gadget_tokens(spec, args.space)
    if tokens > _MAX_TM_TOKENS:
        raise _GadgetTooLarge("machine gadget token count", tokens, _MAX_TM_TOKENS)
    patterns = _tm_gadget_patterns(spec, args.space)
    if patterns > _MAX_TM_PATTERNS:
        raise _GadgetTooLarge("machine gadget pattern count", patterns, _MAX_TM_PATTERNS)
    return _emit_gadget(args, *encode_tm(spec, word, args.space))


def _cmd_simulate_tm(args: argparse.Namespace) -> int:
    """An accepted run prints its history and exits 0, a run cut by
    ``--max-steps`` or the run ceiling prints ``bounded`` and exits 3, and
    any other prints ``REJECT`` and exits 1."""
    spec, word = _load_machine(args)
    at_ceiling = args.max_steps is None or args.max_steps > _MAX_TM_STEPS
    max_steps = _MAX_TM_STEPS if at_ceiling else args.max_steps
    result = simulate_tm(spec, word, args.space, max_steps=max_steps)
    payload = {
        "accepted": result.accepted,
        "history": result.history,
        "steps": result.steps,
        "complete": result.complete,
    }
    if result.accepted:
        human, code = " ".join(result.history), 0
    elif not result.complete:
        human, code = "bounded", 3
    else:
        human, code = "REJECT", 1
    _emit(args, payload, human)
    if at_ceiling and not result.complete:
        print(f"error: the run reached the ceiling of {_MAX_TM_STEPS} steps", file=sys.stderr)
    return code


def _cmd_to_regex(args: argparse.Namespace) -> int:
    pattern = parse_pattern(args.pattern, args.escape, args.tokens)
    sigma = _load_alphabet(args)
    out = to_classical_regex(pattern, sigma)
    _emit(args, {"regex": out}, out)
    return 0


def _add_common(sub: argparse.ArgumentParser, syntax: bool = True) -> None:
    """Add ``--json``, and with ``syntax`` the surface-syntax options of
    the subcommands that read patterns, texts or alphabets."""
    if syntax:
        sub.add_argument(
            "--escape", default=None, help="escape character for patterns"
        )
        sub.add_argument(
            "--tokens",
            action="store_true",
            help="treat patterns and texts as whitespace-separated symbols",
        )
    sub.add_argument("--json", action="store_true", help="emit a JSON report")


def _add_alphabet(sub: argparse.ArgumentParser, required: bool = True) -> None:
    group = sub.add_mutually_exclusive_group(required=required)
    group.add_argument("--alphabet", help="alphabet as characters or tokens")
    group.add_argument("--alphabet-file", help="file with one symbol per line")


def _non_negative_int(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {raw!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {value}")
    return value


def _add_machine(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--machine", required=True, help="machine JSON file, or - for stdin"
    )
    sub.add_argument(
        "--input", default="", help="input word, tokens separated by spaces"
    )
    sub.add_argument(
        "--space", type=_non_negative_int, required=True, help="tape cells available"
    )


def _add_search(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--budget",
        type=_non_negative_int,
        default=DEFAULT_STATE_BUDGET,
        help="maximum number of search states",
    )
    sub.add_argument(
        "--max-len",
        type=_non_negative_int,
        default=None,
        help="cap on witness length",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="likekit",
        description="LIKE pattern matching, equivalence, and hardness gadgets",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("match", help="match one pattern against one text")
    p.add_argument("--pattern", required=True)
    p.add_argument("--text", required=True)
    _add_common(p)
    _add_alphabet(p, required=False)
    p.set_defaults(func=_cmd_match)

    p = subs.add_parser("normalize", help="print the normal form of a pattern")
    p.add_argument("--pattern", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_normalize)

    p = subs.add_parser("eval", help="evaluate a boolean expression on a text")
    p.add_argument("--expr", required=True)
    p.add_argument("--text", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_eval)

    p = subs.add_parser("dnf", help="rewrite an expression to wildcard-free DNF")
    p.add_argument("--expr", required=True)
    _add_common(p)
    _add_alphabet(p)
    p.add_argument(
        "--cap",
        type=_non_negative_int,
        default=DEFAULT_EXPANSION_CAP,
        help="maximum number of generated atoms",
    )
    p.set_defaults(func=_cmd_dnf)

    p = subs.add_parser("equiv", help="decide whether two expressions agree")
    p.add_argument("--e1", required=True)
    p.add_argument("--e2", required=True)
    _add_common(p)
    _add_alphabet(p)
    _add_search(p)
    p.set_defaults(func=_cmd_equiv)

    p = subs.add_parser("nonempty", help="search for a text satisfying an expression")
    p.add_argument("--expr", required=True)
    _add_common(p)
    _add_alphabet(p)
    _add_search(p)
    p.set_defaults(func=_cmd_nonempty)

    p = subs.add_parser("reduce", help="generate gadget patterns and expressions")
    rsubs = p.add_subparsers(dest="gadget", required=True)

    r = rsubs.add_parser("3sat", help="encode a DIMACS 3-CNF formula")
    r.add_argument("--dimacs", required=True, help="DIMACS file, or - for stdin")
    r.add_argument("--alphabet-out", default=None, help="write the alphabet here")
    _add_common(r, syntax=False)
    r.set_defaults(func=_cmd_reduce_3sat)

    r = rsubs.add_parser("majority", help="pattern for majority-of-ones")
    r.add_argument(
        "--n",
        type=_non_negative_int,
        required=True,
        help="text length the pattern is aimed at",
    )
    _add_common(r, syntax=False)
    r.set_defaults(func=_cmd_reduce_majority)

    r = rsubs.add_parser("tm", help="encode a bounded-space machine run")
    _add_machine(r)
    r.add_argument("--alphabet-out", default=None, help="write the alphabet here")
    _add_common(r, syntax=False)
    r.set_defaults(func=_cmd_reduce_tm)

    p = subs.add_parser("simulate", help="run a machine directly")
    ssubs = p.add_subparsers(dest="target", required=True)
    r = ssubs.add_parser("tm", help="run a bounded-space machine")
    _add_machine(r)
    r.add_argument("--max-steps", type=_non_negative_int, default=None)
    _add_common(r, syntax=False)
    r.set_defaults(func=_cmd_simulate_tm)

    p = subs.add_parser("to-regex", help="translate a pattern to a classical regex")
    p.add_argument("--pattern", required=True)
    _add_common(p)
    _add_alphabet(p)
    p.set_defaults(func=_cmd_to_regex)

    return parser


def dispatch(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    handler: Callable[[argparse.Namespace], int] = args.func
    try:
        return handler(args)
    except (SearchBudgetExceeded, ExplosionCapError, _GadgetTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # A closed stdout is not an input error; main handles it.
        raise
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = dispatch(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader of stdout went away (say, ``| head``): stop quietly.
        # Python flushes stdout again at exit, so point it at devnull first.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.exit(code)
