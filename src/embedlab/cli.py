"""Command-line front end.

Reads a square matrix from a JSON file ({"n": int, "rows": [[...], ...],
"kind": optional}) or a plain CSV of rows, runs one analysis subcommand, and
writes a single self-contained JSON report to stdout as one line, so the
reports of many runs appended to one file are JSON Lines.  A one-line human
summary goes to stderr when it is a terminal.

Exit codes: 0 positive verdict / success, 1 negative verdict,
2 undetermined, 64 usage error, 65 input format error.
"""

import argparse
import dataclasses
import functools
import json
import math
import sys
import time

import numpy as np

from . import __version__, classify, embed, numkit, structure
from .errors import EmbedlabError
from .numkit import ToleranceConfig

EXIT_POSITIVE = 0
EXIT_NEGATIVE = 1
EXIT_UNDETERMINED = 2
EXIT_USAGE = 64
EXIT_FORMAT = 65


class _UsageError(Exception):
    pass


class _FormatError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _ints(text):
    """Comma-separated integers; blank parts are skipped."""
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _positive_ints(text):
    values = _ints(text)
    if any(value < 1 for value in values):
        raise argparse.ArgumentTypeError(f"expected positive integers, got {text!r}")
    return values


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _positive_float(text):
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"expected a finite positive float, got {text!r}")
    return value


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of the process, built on first use: constructing it
    costs more than deciding a small matrix, and parsing leaves it unchanged.
    Its ``type=`` converters turn and check every option value."""
    parser = _Parser(prog="embedlab", description=__doc__, add_help=True)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="matrix file (.json or .csv)")
        p.add_argument("--tol", type=_positive_float, default=None, help="entrywise tolerance override")
        return p

    add("classify", "matrix class membership flags")
    add("structure", "block triangular form and necessary conditions")
    add("expm", "matrix exponential")
    p = add("logm", "real branch logarithm")
    p.add_argument(
        "--branch",
        type=_ints,
        default=None,
        help="comma-separated branch offsets; write offsets that start with '-' as --branch=-1,1,0",
    )
    p = add("root", "primary nth root")
    p.add_argument("--n", type=_positive_int, required=True, help="root order")
    add("embed", "embeddability verdict")
    p = add("infdiv", "strong infinite divisibility verdict")
    p.add_argument(
        "--roots", type=_positive_ints, default="2,3,5", help="comma-separated root orders to demonstrate"
    )
    return parser


def _load_matrix(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _FormatError(f"cannot read {path}: {exc}") from exc
    stripped = text.lstrip()
    try:
        if path.endswith(".json") or stripped.startswith("{"):
            doc = json.loads(text)
            rows = doc["rows"]
            n = doc.get("n", len(rows))
            if isinstance(n, bool) or not isinstance(n, int):
                raise _FormatError(f"declared n must be a JSON integer, got {n!r}")
            if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for row in rows for x in row):
                raise _FormatError("matrix entries must be JSON numbers")
            M = np.array(rows, dtype=float)
            if M.shape != (n, n):
                raise _FormatError(f"declared n={n} but rows have shape {M.shape}")
        else:
            rows = [
                [float(cell) for cell in line.split(",")]
                for line in text.splitlines()
                if line.strip()
            ]
            M = np.array(rows, dtype=float)
        return numkit.as_square_matrix(M)
    except _FormatError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError, json.JSONDecodeError) as exc:
        raise _FormatError(f"bad matrix file {path}: {exc}") from exc


def _tolerances(args) -> ToleranceConfig:
    """``numkit.DEFAULT_TOL``, with ``entry_tol`` from ``--tol`` when given."""
    return numkit.DEFAULT_TOL if args.tol is None else ToleranceConfig(entry_tol=args.tol)


def _json_default(obj):
    """What ``json`` cannot encode itself: real arrays, numpy scalars and
    dataclasses field by field.  Anything else raises TypeError, as
    ``json``'s own default does, so no value enters a report as text.  No
    payload holds a complex array: ``logm`` prints the real part of a
    selection that Culver's criterion makes real, or an error, and every
    report array is real."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


_VERDICT_EXIT_CODES = {
    embed.EMBEDDABLE: EXIT_POSITIVE,
    embed.STRONGLY_INF_DIVISIBLE: EXIT_POSITIVE,
    embed.NOT_EMBEDDABLE: EXIT_NEGATIVE,
    embed.NOT_STRONGLY_INF_DIVISIBLE: EXIT_NEGATIVE,
    embed.UNDETERMINED: EXIT_UNDETERMINED,
}


def _run_command(args, M, cfg):
    """Returns (payload dict, exit code)."""
    if args.command == "classify":
        report = classify.classify_matrix(M, cfg)
        return {"class_report": report}, EXIT_POSITIVE

    if args.command == "structure":
        decomp = structure.frobenius_form(M, cfg)
        conditions = structure.necessary_conditions(M, cfg, decomposition=decomp)
        code = EXIT_POSITIVE if conditions.passed else EXIT_NEGATIVE
        return {"decomposition": decomp, "necessary_conditions": conditions}, code

    if args.command == "expm":
        return {"matrix": numkit.expm(M)}, EXIT_POSITIVE

    if args.command == "logm":
        eigen = numkit.eig(M, cfg)
        offsets = args.branch or [0] * eigen.n
        if len(offsets) != eigen.n:
            raise _UsageError(f"--branch needs {eigen.n} offsets")
        candidate = numkit.logm_branch(eigen, offsets, cfg)
        # Culver (1966): real exactly when each real eigenvalue is positive with
        # offset 0 and each conjugate pair takes offsets (k, -k).  A repeated
        # pair is not adjacent in the canonical order, so the pairs are matched
        # by value, not position as in embed._real_blocks
        selection = set(zip(eigen.eigenvalues.tolist(), offsets))
        if not all(k == 0 < z.real if z.imag == 0 else (z.conjugate(), -k) in selection for z, k in selection):
            payload = {
                "error": "ComplexCandidate",
                "detail": "the branch selection is not real by Culver's criterion",
                "branch": offsets,
            }
            return payload, EXIT_NEGATIVE
        return {"matrix": candidate.real, "branch": offsets}, EXIT_POSITIVE

    if args.command == "root":
        return {"matrix": numkit.primary_root(M, args.n, cfg)}, EXIT_POSITIVE

    if args.command == "embed":
        report = embed.check_embeddable(M, cfg)
        return {"embeddability": report}, _VERDICT_EXIT_CODES[report.verdict]

    # the subparsers are required, so the one command left is infdiv
    report = embed.check_strong_inf_divisible(M, cfg, root_orders=tuple(args.roots))
    return {"divisibility": report}, _VERDICT_EXIT_CODES[report.verdict]


def _summary_line(payload, code):
    for key in ("embeddability", "divisibility"):
        if key in payload:
            return f"verdict: {payload[key].verdict}"
    if "necessary_conditions" in payload:
        passed = payload["necessary_conditions"].passed
        return f"necessary conditions: {'pass' if passed else 'fail'}"
    if "error" in payload:
        return f"error: {payload['error']}"
    return f"done (exit {code})"


def run_cli(argv) -> int:
    started = time.perf_counter()
    try:
        args = _build_parser().parse_args(argv)
        cfg = _tolerances(args)
        M = _load_matrix(args.file)
        try:
            payload, code = _run_command(args, M, cfg)
        except EmbedlabError as exc:
            # numerical trouble is reported, not raised: verdict Undetermined
            payload = {
                "verdict": embed.UNDETERMINED,
                "error": type(exc).__name__,
                "detail": str(exc),
            }
            code = EXIT_UNDETERMINED
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _FormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_FORMAT

    report = {
        "command": list(argv),
        "tolerances": cfg,
        "input": {"n": int(M.shape[0]), "rows": M.tolist()},
        "result": payload,
        "version": __version__,
        "duration_s": time.perf_counter() - started,
    }
    # no indent: json uses its C encoder only without one
    sys.stdout.write(json.dumps(report, default=_json_default) + "\n")
    if sys.stderr.isatty():
        print(_summary_line(payload, code), file=sys.stderr)
    return code


def main():
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
