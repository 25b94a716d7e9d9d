"""Every Python name that README.md quotes in backticks exists in the package.

A backticked span that is a plain name, a dotted name or a call of one,
such as `factor_range`, `survey.analyze` or `transform(p, g, a, b, c)`,
must be an attribute of a theta_selmer module; a dotted name may start at
the package or at one of its modules.  The exceptions are a certificate
kind (the value of a `cassels.KIND_*` constant), a builtin such as `pow`,
and the environment variable `THETA_SELMER_JOBS`.  A helper that is
renamed or deleted thus cannot stay named in the README.
"""

import builtins
import importlib
import pathlib
import re
import types

import pytest

import theta_selmer
from theta_selmer import cassels

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = {
    path.stem: importlib.import_module(f"theta_selmer.{path.stem}")
    for path in sorted((ROOT / "src" / "theta_selmer").glob("*.py"))
    if path.stem != "__init__"
}
# where a dotted name may start: the package, a module, or a module's names
SCOPES = [types.SimpleNamespace(theta_selmer=theta_selmer, **MODULES), *MODULES.values()]
EXEMPT = {value for key, value in vars(cassels).items() if key.startswith("KIND_")}
EXEMPT |= {"THETA_SELMER_JOBS", *dir(builtins)}

_MISSING = object()
_NAME = re.compile(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\(.*\))?")


def quoted_names(text: str) -> list[str]:
    """The name of each backticked span that is a name or a call, in order,
    each once."""
    spans = (_NAME.fullmatch(span) for span in re.findall(r"`([^`\n]+)`", text))
    return list(dict.fromkeys(match.group(1) for match in spans if match))


def resolves(name: str) -> bool:
    if name in EXEMPT:
        return True
    for scope in SCOPES:
        obj = scope
        for part in name.split("."):
            obj = getattr(obj, part, _MISSING)
            if obj is _MISSING:
                break
        else:
            return True
    return False


def test_detector_reads_names_and_calls():
    text = ("`arith.factor_range`, `transform(p, g, a, b, c)`, `pow`, `[beta/q]`, "
            "`survey --max`, `M' v = v_c`, `RankZero_Cassels`, `factor_range`")
    names = quoted_names(text)
    assert names == ["arith.factor_range", "transform", "pow", "RankZero_Cassels",
                     "factor_range"]
    assert all(map(resolves, names))
    assert not any(map(resolves, ["squarefree_walk", "arith.squarefree_walk", "cassels.pow"]))


@pytest.mark.parametrize("name", quoted_names((ROOT / "README.md").read_text()))
def test_readme_name_exists(name):
    assert resolves(name), f"README.md names `{name}`, which no theta_selmer module has"
