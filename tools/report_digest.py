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
does the same for the class flags and their witnesses.  Then the sha256 of
all reports in order, and ``sha256_without_roots``, the same digest with
every ``roots_demonstrated`` left out (trailing sub-reports included).
Each FIELD named after SRC_DIR is a report field to leave out of one more
digest, printed last as ``sha256_without FIELD ... <digest>``; for example

    python3 tools/report_digest.py src bound_used roots_demonstrated

Run it on two checkouts to show that a change leaves every report as it
was, or everything but the named fields, such as the sample roots, whose
last bits depend on how they are computed.  For a change that moves only
witness bits, leave out both witness fields, the embeddability
``generator`` and the divisibility ``z_matrix``:

    python3 tools/report_digest.py src generator z_matrix
"""

import dataclasses
import hashlib
import sys
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
    count = 0
    for seed in SEEDS:
        cases = [case for workload in sorted(corpus.WORKLOADS) for case in corpus.build(workload, seed)]
        for case in cases + corpus.known_defect_cases(seed):
            eig_digest.update(repr(call_bits(embedlab.numkit.eig, case.matrix, EmbedlabError, EIG_FIELDS)).encode())
            classify_digest.update(repr(call_bits(embedlab.classify_matrix, case.matrix, EmbedlabError)).encode())
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
    for name, digest in digests.items():
        print(f"{name} {digest.hexdigest()}")


if __name__ == "__main__":
    main(sys.argv[1:])
