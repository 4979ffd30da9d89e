"""Command-line front end: JSON certificates and SVG brick diagrams.

Commands: analyze, decompose, chain, bound, torus, orbit, selftest.
The word wire format is whitespace-separated 1-based generator indices,
optionally with --strands.  Exit codes: 0 success, 2 domain errors (a
malformed command line included), 3 internal-consistency failures.

analyze, decompose, and chain also run in batch mode (--batch FILE with
one word per line, --out-dir DIR): inputs are processed in parallel and
each result is written atomically to its own numbered JSON file.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import multiprocessing
import os
import sys
import tempfile
from math import gcd

from . import curves as cv
from .alexpoly import burau_alexander, hironaka_max_n, torus_alexander
from .braidwords import braid_invariants, parse_braid
from .errors import DomainError, InternalConsistencyError, InvalidParameter
from .fatgraph import build_surface
from .monodromy import alexander_from_monodromy
from .plumbing import (
    detect_chain,
    torus_braid,
    torus_summand_report,
    trefoil_decompose,
)
from .selftest import run_all
from .svg import render_svg


def _emit(text):
    """Print; once the reader has closed stdout, send the rest to the null
    device, so the command ends without a traceback and keeps its exit code."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _write_file(path, text, what):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise DomainError(f"cannot write the {what} file: {exc}") from exc


def _svg(surface, curves, path):
    _write_file(path, render_svg(surface, curves), "--svg")


def _detect_torus_parameters(word):
    """(p, q) when the word is exactly (s_1 ... s_{p-1})^q, else None."""
    p = word.strands
    block = tuple(range(1, p))
    if p < 2 or word.length % (p - 1):
        return None
    q = word.length // (p - 1)
    return (p, q) if word.letters == block * q else None


def _alexander_payload(word):
    burau = burau_alexander(word)
    mono = alexander_from_monodromy(build_surface(word))
    payload = {
        "burau": burau.to_json(),
        "monodromy": mono.to_json(),
        "torus_formula": None,
        "agree": burau.unit_equal(mono),
    }
    pq = _detect_torus_parameters(word)
    if pq is not None and gcd(*pq) == 1 and pq[1] >= 1:
        formula = torus_alexander(*pq)
        payload["torus_formula"] = formula.to_json()
        payload["agree"] = payload["agree"] and formula.unit_equal(burau)
    return payload


def _analyze_payload(text, strands):
    word = parse_braid(text, strands)
    report = braid_invariants(word)
    return {
        "word": list(word.letters),
        "strands": word.strands,
        "c": report.c,
        "b1": report.b1,
        "components": report.components,
        "genus": report.genus,
        "reduced": report.reduced,
        "connected": report.connected,
        "alexander": _alexander_payload(word),
    }


def _decompose_payload(text, strands):
    word = parse_braid(text, strands)
    return trefoil_decompose(word).to_json()


def _seed_rectangle(surface, index):
    """The rectangle at --seed INDEX, or the top-left one without --seed."""
    top_left = surface.top_left_rectangle()  # TrivialLink when there is no rectangle
    if index is None:
        return top_left
    if index < 0 or index >= len(surface.rectangles):
        raise DomainError(
            f"seed index {index} outside 0..{len(surface.rectangles) - 1}"
        )
    return surface.rectangles[index]


def _chain_payload(text, strands, seed_index, max_n):
    word = parse_braid(text, strands)
    surface = build_surface(word)
    seed = _seed_rectangle(surface, seed_index)
    cap = max_n if max_n is not None else surface.b1 + 1
    return detect_chain(surface, seed, cap).to_json()


def _batch_worker(task):
    index, line, payload_fn, kwargs = task
    try:
        payload = payload_fn(line, **kwargs)
    except DomainError as exc:
        payload = {
            "input": line,
            "error": {"code": type(exc).__name__, "message": str(exc)},
        }
    return index, payload


def _run_batch(args, payload_fn, **kwargs):
    """Run payload_fn(line, **kwargs) on each line of the --batch file in a
    pool; payload_fn is module-level, so it pickles."""
    if not args.out_dir:
        raise DomainError("--batch needs --out-dir for the per-input JSON files")
    try:
        with open(args.batch, "r", encoding="utf-8") as fh:
            lines = [line.strip() for line in fh if line.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read the --batch file: {exc}") from exc
    tasks = [(i, line, payload_fn, kwargs) for i, line in enumerate(lines)]
    with multiprocessing.Pool() as pool:
        try:
            os.makedirs(args.out_dir, exist_ok=True)
            for index, payload in pool.imap_unordered(_batch_worker, tasks):
                target = os.path.join(args.out_dir, f"{index:05d}.json")
                fd, tmp = tempfile.mkstemp(dir=args.out_dir, suffix=".tmp")
                with os.fdopen(fd, "w", encoding="utf-8") as out:
                    out.write(json.dumps(payload, indent=2) + "\n")
                os.replace(tmp, target)
        except OSError as exc:
            raise DomainError(f"cannot write into the --out-dir directory: {exc}") from exc
    return {"inputs": len(lines), "out_dir": args.out_dir}


def _require_one_source(args):
    if bool(args.word) == bool(args.batch):
        raise DomainError("give exactly one input source: a word or --batch FILE")


def _cmd_analyze(args):
    _require_one_source(args)
    if args.batch:
        return _run_batch(args, _analyze_payload, strands=args.strands)
    payload = _analyze_payload(args.word, args.strands)
    if args.svg:
        _svg(build_surface(parse_braid(args.word, args.strands)), [], args.svg)
    return payload


def _cmd_decompose(args):
    _require_one_source(args)
    if args.batch:
        return _run_batch(args, _decompose_payload, strands=args.strands)
    return _decompose_payload(args.word, args.strands)


def _cmd_chain(args):
    _require_one_source(args)
    if args.batch:
        return _run_batch(
            args, _chain_payload, strands=args.strands, seed_index=args.seed, max_n=args.max_n
        )
    payload = _chain_payload(args.word, args.strands, args.seed, args.max_n)
    if args.svg:
        word = parse_braid(args.word, args.strands)
        surface = build_surface(word)
        curves = [cv.NormalCurve(surface, w) for w in payload["curves"]]
        _svg(surface, curves, args.svg)
    return payload


def _cmd_bound(args):
    if bool(args.word) == bool(args.torus):
        raise DomainError("give exactly one input source: a word or --torus P Q")
    if args.torus:
        p, q = args.torus
        delta = torus_alexander(p, q)
        source = {"torus": [p, q]}
    else:
        word = parse_braid(args.word, args.strands)
        delta = burau_alexander(word)
        source = {"word": list(word.letters)}
    n_max, table = hironaka_max_n(delta)
    return {
        **source,
        "delta": delta.to_json(),
        "delta_dense": delta.dense(),
        "n_max": n_max,
        "plumbing_bound": n_max - 1,
        "table": [dataclasses.asdict(row) for row in table],
    }


def _cmd_torus(args):
    rep = torus_summand_report(args.p, args.q)
    if args.svg and rep.certificate is not None:
        surface = build_surface(torus_braid(args.p, args.q))
        curves = [cv.NormalCurve(surface, w) for w in rep.certificate.curve_words]
        _svg(surface, curves, args.svg)
    return rep.to_json()


def _cmd_orbit(args):
    if not args.word:
        raise DomainError("orbit needs a braid word")
    if args.power < 0:
        raise InvalidParameter(f"--power must be at least 0, got {args.power}")
    word = parse_braid(args.word, args.strands)
    surface = build_surface(word)
    seed = _seed_rectangle(surface, args.seed)
    x = cv.curve_from_rectangle(surface, seed)
    orbit = [x]
    for _ in range(args.power):
        orbit.append(cv.apply_monodromy(orbit[-1]))
    if args.svg:
        _svg(surface, orbit, args.svg)
    return {
        "word": list(word.letters),
        "strands": word.strands,
        "seed": seed.to_json(),
        "orbit": [
            {
                "power": k,
                "curve": list(c.word),
                "support": sorted(c.support),
                "embedded": cv.self_intersection(c) == 0,
            }
            for k, c in enumerate(orbit)
        ],
    }


def _cmd_selftest(args):
    results = run_all(quick=args.quick)
    for res in results:
        _emit(res.line())
    if all(r.passed for r in results):
        return None
    raise InternalConsistencyError("acceptance criteria failed")


class _Parser(argparse.ArgumentParser):
    """Raises a malformed command line as a DomainError, so it ends like any
    other bad input: exit 2 and a JSON error object.  Subcommand parsers
    inherit the class."""

    def error(self, message):
        raise DomainError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="braidplumb",
        description="Exact plumbing analysis of positive braid fibre surfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, batch=False):
        p.add_argument(
            "word", nargs="?", default=None, help="whitespace-separated generator indices"
        )
        p.add_argument("--strands", type=int, default=None)
        p.add_argument("--json", dest="json_path", default=None, help="also write JSON here")
        if batch:
            p.add_argument("--batch", default=None, help="file with one word per line")
            p.add_argument("--out-dir", dest="out_dir", default=None)

    p = sub.add_parser("analyze", help="invariants and Alexander polynomials")
    add_common(p, batch=True)
    p.add_argument("--svg", default=None)
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("decompose", help="iterated trefoil deplumbing certificate")
    add_common(p, batch=True)
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("chain", help="iterated-plumbing chain certificate")
    add_common(p, batch=True)
    p.add_argument("--seed", type=int, default=None, help="rectangle index")
    p.add_argument("--max-n", dest="max_n", type=int, default=None)
    p.add_argument("--svg", default=None)
    p.set_defaults(fn=_cmd_chain)

    p = sub.add_parser("bound", help="Alexander-polynomial plumbing bound table")
    p.add_argument("word", nargs="?", default=None)
    p.add_argument("--strands", type=int, default=None)
    p.add_argument("--torus", type=int, nargs=2, metavar=("P", "Q"), default=None)
    p.add_argument("--json", dest="json_path", default=None)
    p.set_defaults(fn=_cmd_bound)

    p = sub.add_parser("torus", help="detector vs bound for a torus braid")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("--json", dest="json_path", default=None)
    p.add_argument("--svg", default=None)
    p.set_defaults(fn=_cmd_torus)

    p = sub.add_parser("orbit", help="monodromy orbit of a rectangle curve")
    add_common(p)
    p.add_argument("--seed", type=int, default=None, help="rectangle index")
    p.add_argument("--power", type=int, default=1)
    p.add_argument("--svg", default=None)
    p.set_defaults(fn=_cmd_orbit)

    p = sub.add_parser("selftest", help="run the acceptance criteria")
    p.add_argument("--quick", action="store_true", help="shrink the big corpus")
    p.set_defaults(fn=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        payload = args.fn(args)
        if payload is None:
            return 0
        text = json.dumps(payload, indent=2)
        # Written before anything is printed: a failed write prints only
        # the error object.
        if getattr(args, "json_path", None):
            _write_file(args.json_path, text + "\n", "--json")
        code = 0
    except (DomainError, InternalConsistencyError) as exc:
        text = json.dumps({"error": {"code": type(exc).__name__, "message": str(exc)}})
        code = 3 if isinstance(exc, InternalConsistencyError) else 2
    _emit(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
