"""The README promises the public API and nothing else.

The public API is what `polyadj` exports, its modules by name, and
`polyadj.lp.solve`. Every other name in the package may change without
notice, so the README must not cite one.
"""

import builtins
import pkgutil
import re
import types
from pathlib import Path

import polyadj

README = Path(__file__).resolve().parents[1] / "README.md"


def _code_spans(text: str) -> list[str]:
    """The fenced blocks and the inline code spans of a Markdown text."""
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", text, re.M | re.S)
    inline = re.sub(r"^```[^\n]*\n.*?^```", "", text, flags=re.M | re.S)
    return blocks + re.findall(r"`([^`]+)`", inline)


def test_the_readme_cites_exactly_the_public_api():
    exported = {name for name, value in vars(polyadj).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    modules = {info.name for info in pkgutil.iter_modules(polyadj.__path__)}
    spans = _code_spans(README.read_text(encoding="utf-8"))
    dotted = {name for span in spans for name in re.findall(r"(?<![\w.])polyadj(?:\.\w+)+", span)}
    # a call of a bare name: not an attribute, a method such as `.contains(`,
    # nor a one-letter variable of the mathematics such as `P(c)`
    called = {name for span in spans for name in re.findall(r"(?<![\w.])([A-Za-z_]\w+)\(", span)}
    cited = {word for span in spans for word in re.findall(r"\w+", span)}

    assert "polyadj.lp.solve" in dotted
    assert dotted <= {f"polyadj.{name}" for name in exported | modules} | {"polyadj.lp.solve"}
    assert called <= exported | set(dir(builtins)) | {"Fraction"}
    assert not [span for span in spans if re.search(r"(?<!\w)_[A-Za-z]", span)]
    # every exported function is shown with its parameters, every class named
    assert {name for name in exported if name.islower()} <= called
    assert exported <= cited
