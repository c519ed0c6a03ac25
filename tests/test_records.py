"""The pin files of tests/records.py: a moved record fails with its key, and
every family of pinned answers has a named oracle test or a stated gap."""
import re

import records


def _rows(n, changed=None):
    return [(f"d{i}", ["draw", i], i * i + (i == changed)) for i in range(n)]


def test_a_moved_record_fails_with_its_key_until_the_pin_is_rewritten(tmp_path):
    pin = tmp_path / "synthetic.txt"
    records.write(_rows(8), pin)
    assert records.compare(_rows(8), pin) is None
    message = records.compare(_rows(8, changed=5), pin)
    assert "1 changed, 0 appeared, 0 vanished" in message and "changed #5: ['draw', 5]" in message
    assert "0 changed, 1 appeared, 0 vanished" in records.compare(_rows(9), pin)
    message = records.compare(_rows(6), pin)
    assert "0 changed, 0 appeared, 2 vanished" in message and "vanished #6: d6" in message
    moved = records.compare([(label, key, -1) for label, key, _ in _rows(8)], pin)
    assert "8 changed" in moved and moved.count(" changed #") == records.SHOWN
    records.write(_rows(8, changed=5), pin)
    assert records.compare(_rows(8, changed=5), pin) is None


def _defined(name):
    """Whether each part of "file::[Class::]test" is defined in tests/file."""
    file, *parts = name.split("::")
    text = (records.DIGESTS.parent / file).read_text()
    return all(re.search(rf"^ *(def|class) {part}\b", text, re.M) for part in parts)


def test_every_family_has_a_named_oracle_or_a_stated_gap():
    assert [name for names in records.ORACLES.values() for name in names if not _defined(name)] == []
    # the cli stream's families are its subcommands
    families = {label for label, _, _ in records.stream("cli")} | set(records.FAMILIES) - {"cli"}
    assert set(records.ORACLES) | set(records.GAPS) == families
    assert set(records.ORACLES).isdisjoint(records.GAPS)
    # a gap closes by moving to ORACLES; none may open
    assert set(records.GAPS) <= {"insep-tails", "tree"}
