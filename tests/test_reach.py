"""The committed reach map stays well-formed between full driver runs.

``tools/reach.py --check`` runs every driver (minutes); this runs none.
It checks that each ``tools/reach.txt`` entry names a function that exists
in ``src/repro`` with its current body-line count and carries a known
class, and that the census spells function keys the way the interpreter
does, so the run-time hook and the list key the same functions.
"""

import pathlib
import sys
import types

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import reach  # noqa: E402


def test_every_entry_names_a_src_function_and_carries_a_class():
    assert reach.list_problems(reach.read_list(), reach.census()) == []


def test_a_bad_entry_is_reported():
    functions = reach.census()
    jaro_lines = functions["repro.text.similarity:jaro"].lines
    bad = [
        reach.Entry("unclassified", "repro.text.similarity:levenshtein", 1),
        reach.Entry("api", "repro.text.similarity:jaro", jaro_lines),
        reach.Entry("oracle", "repro.text.similarity:soundex", 26),
    ]
    # unknown class, stale line count, api without a reason, missing function
    assert len(reach.list_problems(bad, functions)) == 4


def test_census_keys_are_the_interpreters_qualnames():
    qualnames = set()
    for path in sorted(reach.PACKAGE.rglob("*.py")):
        module = reach.module_name(path)
        stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while stack:
            for const in stack.pop().co_consts:
                if isinstance(const, types.CodeType):
                    stack.append(const)
                    qualnames.add(f"{module}:{const.co_qualname}")
    assert set(reach.census()) <= qualnames
