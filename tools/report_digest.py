"""Digest of every decision report embedlab gives on the benchmark corpora.

    python3 tools/report_digest.py SRC_DIR [FIELD ...]

SRC_DIR is the directory that holds the ``embedlab`` package to test (the
``src`` directory of a checkout).  The inputs come from this checkout's
``perfbench/corpus.py``: every case of the four workloads at seeds 1-5 and
2026, plus the known-defect probe draws of each seed.  Both questions are
asked of every input.  A report is written as nested tuples, with arrays as
dtype, shape and bytes and floats in hex, so two runs give the same digest
only when their reports are bitwise identical; an input that raises
contributes its exception type and message instead.

Prints the number of reports, then ``sha256_eig``, the digest of
``numkit.eig`` on every input (its eigenvalues, eigenvectors, inverse basis,
``min_pairwise_gap`` and ``basis_condition``, or its exception), which shows
bit identity of the eigendecomposition in parts no report holds, and
``sha256_classify``, the digest of ``classify_matrix`` on every input (its
flags, witnesses, determinant and spectral radius, or its exception), which
does the same for the class flags and their witnesses, and
``sha256_structure``, the digest of ``structure.frobenius_form`` (all its
fields) and of ``structure.necessary_conditions`` given that form, or the
exception, on every input: the prefilter runs there even on the inputs
whose decisions stop at the determinant gate.  Then the sha256 of
all reports in order, and ``sha256_without_roots``, the same digest with
every ``roots_demonstrated`` left out (trailing sub-reports included).
Then ``sha256_cli``, the digest of the command line: each of its seven
commands (``root`` with ``--n 2``) runs in process through
``embedlab.cli.run_cli`` on every ``cli-report`` input at every seed, each
input written as a JSON file into a temporary working directory and named
by its relative path, so that the report's ``command`` is the same on
every run; each run contributes its exit code and its JSON report without
``duration_s``.  Each FIELD named after SRC_DIR is a report field to leave
out of one more digest, printed last as ``sha256_without FIELD ... <digest>``; for example

    python3 tools/report_digest.py src bound_used roots_demonstrated

Run it on two checkouts to show that a change leaves every report as it
was, or everything but the named fields, such as the sample roots, whose
last bits depend on how they are computed.  For a change that moves only
witness bits, leave out both witness fields, the embeddability
``generator`` and the divisibility ``z_matrix``:

    python3 tools/report_digest.py src generator z_matrix
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3, 4, 5, 2026)


def report_bits(x, skip=()):
    """A report as nested tuples, without the dataclass fields named in
    ``skip``; equal results give equal tuples bit for bit."""
    if dataclasses.is_dataclass(x):
        return tuple(
            (f.name, report_bits(getattr(x, f.name), skip)) for f in dataclasses.fields(x) if f.name not in skip
        )
    if isinstance(x, np.ndarray):
        return (x.dtype.str, x.shape, x.tobytes())
    if isinstance(x, dict):
        return tuple((k, report_bits(v, skip)) for k, v in x.items())
    if isinstance(x, (list, tuple)):
        return tuple(report_bits(v, skip) for v in x)
    return x.hex() if isinstance(x, float) else x


CLI_COMMANDS = (["classify"], ["structure"], ["expm"], ["logm"], ["root", "--n", "2"], ["embed"], ["infdiv"])


def cli_digest(cli, corpus):
    """sha256 of every CLI command's exit code and report, without
    ``duration_s``, on the ``cli-report`` inputs of every seed."""
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as workdir, contextlib.chdir(workdir):
        for seed in SEEDS:
            for i, case in enumerate(corpus.build("cli-report", seed)):
                name = f"input_{i}.json"
                Path(name).write_text(json.dumps({"n": case.n, "rows": case.matrix.tolist()}))
                for command in CLI_COMMANDS:
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                        code = cli.run_cli([command[0], name, *command[1:]])
                    report = json.loads(out.getvalue())
                    del report["duration_s"]
                    digest.update(repr((code, report)).encode())
    return digest.hexdigest()


EIG_FIELDS = ("eigenvalues", "right_eigenvectors", "inverse_basis", "min_pairwise_gap", "basis_condition")


def call_bits(f, matrix, errors, fields=None):
    """``f(matrix)`` as nested tuples, only its attributes named in
    ``fields`` when given, or its exception type and message."""
    try:
        result = f(matrix)
    except errors as exc:
        return (type(exc).__name__, str(exc))
    return report_bits(result if fields is None else tuple(getattr(result, name) for name in fields))


def main(argv):
    if not argv:
        raise SystemExit(f"usage: {Path(__file__).name} SRC_DIR [FIELD ...]")
    src, fields = Path(argv[0]).resolve(), tuple(argv[1:])
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import corpus
    import embedlab
    import embedlab.cli
    from embedlab.errors import EmbedlabError

    if not Path(embedlab.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: imported embedlab from {embedlab.__file__}, not from {src}")

    questions = (embedlab.check_embeddable, embedlab.check_strong_inf_divisible)
    skips = {"sha256": (), "sha256_without_roots": ("roots_demonstrated",)}
    if fields:
        skips["sha256_without " + " ".join(fields)] = fields
    digests = {name: hashlib.sha256() for name in skips}
    eig_digest = hashlib.sha256()
    classify_digest = hashlib.sha256()
    structure_digest = hashlib.sha256()
    structure = embedlab.structure

    def prefilter(matrix):
        form = structure.frobenius_form(matrix)
        return form, structure.necessary_conditions(matrix, decomposition=form)

    count = 0
    for seed in SEEDS:
        cases = [case for workload in sorted(corpus.WORKLOADS) for case in corpus.build(workload, seed)]
        for case in cases + corpus.known_defect_cases(seed):
            eig_digest.update(repr(call_bits(embedlab.numkit.eig, case.matrix, EmbedlabError, EIG_FIELDS)).encode())
            classify_digest.update(repr(call_bits(embedlab.classify_matrix, case.matrix, EmbedlabError)).encode())
            structure_digest.update(repr(call_bits(prefilter, case.matrix, EmbedlabError)).encode())
            for question in questions:
                try:
                    report = question(case.matrix)
                    bits = {name: report_bits(report, skip) for name, skip in skips.items()}
                except EmbedlabError as exc:
                    bits = dict.fromkeys(skips, (type(exc).__name__, str(exc)))
                for name, digest in digests.items():
                    digest.update(repr(bits[name]).encode())
                count += 1
    print(f"reports {count}")
    print(f"sha256_eig {eig_digest.hexdigest()}")
    print(f"sha256_classify {classify_digest.hexdigest()}")
    print(f"sha256_structure {structure_digest.hexdigest()}")
    lines = [f"{name} {digest.hexdigest()}" for name, digest in digests.items()]
    # after sha256 and sha256_without_roots; a FIELD digest prints last
    lines.insert(2, f"sha256_cli {cli_digest(embedlab.cli, corpus)}")
    print("\n".join(lines))


if __name__ == "__main__":
    main(sys.argv[1:])
