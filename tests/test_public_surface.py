"""Every public name of the package has one row in README's "Public names"
table, and every row names a public name."""

import pathlib
import re
import types

import chordmean

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _table_names() -> list[str]:
    section = README.read_text().split("\n## Public names\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `(\w+)` \|", section, flags=re.MULTILINE)


def _exported_names() -> set[str]:
    return {name for name in dir(chordmean) if not name.startswith("_")
            and not isinstance(getattr(chordmean, name), types.ModuleType)}


def test_public_names_match_the_readme_table():
    rows = _table_names()
    assert len(rows) == len(set(rows)), "a name has more than one row"
    exported = _exported_names()
    assert not exported - set(rows), f"exported but not in README: {sorted(exported - set(rows))}"
    assert not set(rows) - exported, f"in README but not exported: {sorted(set(rows) - exported)}"
