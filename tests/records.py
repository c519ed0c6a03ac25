"""The records that the digest tests pin, and the pin files that hold them.

The `generate()` of tests/test_<family>_digest.py yields a family's seeded
stream as (label, key, record): a short label with no space, the argv or
draw label that names the record in full, and the record as a JSON value.
Its pin, tests/digests/<family>.txt, holds the record count and the sha256
of the stream (each record's JSON, keys sorted, and a newline), then per
record its index, label and the first 16 hex digits of its JSON's sha256.
Each stream is built once per session; the oracle tests, named in ORACLES,
read its pinned records. Rewrite every pin with ``PYTHONPATH=src python
tests/records.py`` and say in CHANGES.md which records moved and why.
"""
import contextlib
import functools
import hashlib
import importlib
import io
import itertools
import json
from pathlib import Path

from srt.cli import dispatch

DIGESTS = Path(__file__).resolve().parent / "digests"
SHOWN = 5  # moved records named in a failure
FAMILIES = ("cli", "expand", "localfield", "taylor", "tree")
# family of pinned answers (a subcommand of the cli stream, or another
# stream) -> the tests under tests/ that check them against independent ones
ORACLES = {
    "split-check": ["test_acceptance.py::test_printed_split_evidence_matches_the_vals"],
    "herbrand": ["test_ramification.py::test_digest_herbrand_draws_match_the_integral"],
    "group": [
        "test_cli_digest.py::test_group_draws_match_their_matrices",
        "test_groups.py::TestGenerationCheck::test_criterion_matches_bfs_on_random_pairs",
        "test_groups.py::TestSylowData::test_matches_brute_force_over_the_group",
    ],
    "enum-tails": [
        "test_cli_digest.py::test_enum_tails_draws_match_brute_force",
        "test_graph.py::TestTailConfigs::test_matches_brute_force",
    ],
    "wild-monodromy": ["test_acceptance.py::test_printed_monodromy_reports_match_the_oracle"],
    "conductor": ["test_ramification.py::test_digest_conductor_draws_match_the_filtrations"],
    "tail-radius": ["test_cli_digest.py::test_tail_radius_draws_match_tree_solve"],
    "tail-center": ["test_cli_digest.py::test_tail_center_draws_match_their_equations"],
    "expand": [
        "test_expand_digest.py::test_a_seeded_sample_of_the_grid_matches_the_binomial_product",
        "test_expand_digest.py::test_every_negative_rational_sqrt1ma_reaches_the_cover",
    ],
    # property tests of the same operations against the exact PiExt model
    "localfield": [
        "test_localfield_properties.py",
        "test_localfield.py::TestPthPowerOracle",
        "test_localfield.py::TestHenselSqrt::test_sqrt_of_minus_one",
    ],
    # property tests of taylor_factors against helpers.binomial_reference
    "taylor": [
        "test_series_properties.py",
        "test_localfield_properties.py::TestLifts::test_taylor_factors_at_a_finite_center",
    ],
    # the json tree-solve records against helpers.tree_law
    "tree": ["test_tree_digest.py::test_tree_solve_records_match_the_law"],
}
# families with no oracle yet, and why; this list may only shrink
GAPS = {
    "insep-tails": "no independent derivation of its closed forms yet",
}


def capture(argv):
    """(exit code, stdout, stderr) of one request run in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(argv)
    return code, out.getvalue(), err.getvalue()


@functools.cache
def stream(family):
    return tuple(importlib.import_module(f"test_{family}_digest").generate())


def pin_lines(rows):
    whole = hashlib.sha256()
    lines = []
    for index, (label, _, record) in enumerate(rows):
        data = json.dumps(record, sort_keys=True).encode()
        whole.update(data + b"\n")
        lines.append(f"{index} {label} {hashlib.sha256(data).hexdigest()[:16]}")
    return [f"{len(lines)} records, sha256 {whole.hexdigest()}"] + lines


def compare(rows, path):
    """None when `path` pins `rows`, else how many records changed, appeared
    and vanished, with the key or label of the first SHOWN of them."""
    want, got = path.read_text().splitlines(), pin_lines(rows)
    if got == want:
        return None
    moved = []
    for index, (new, old) in enumerate(itertools.zip_longest(got[1:], want[1:])):
        if new is None:
            moved.append(("vanished", index, old.split()[1]))
        elif new != old:
            moved.append(("appeared" if old is None else "changed", index, rows[index][1]))
    kinds = [kind for kind, _, _ in moved]
    counts = ", ".join(f"{kinds.count(kind)} {kind}" for kind in ("changed", "appeared", "vanished"))
    return "\n".join(
        [f"{path.name}: {counts}"]
        + [f"  {kind} #{index}: {key}" for kind, index, key in moved[:SHOWN]]
        + [f"pinned {want[0]}, built {got[0]}; rewrite: PYTHONPATH=src python tests/records.py"]
    )


def write(rows, path):
    path.write_text("\n".join(pin_lines(rows)) + "\n")


def check(family):
    message = compare(stream(family), DIGESTS / f"{family}.txt")
    assert message is None, message


if __name__ == "__main__":
    for family in FAMILIES:
        write(stream(family), DIGESTS / f"{family}.txt")
