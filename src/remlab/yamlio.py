"""The one place remlab picks its YAML implementation.

PyYAML's libyaml classes (``CSafeLoader`` / ``CSafeDumper``) are used when
PyYAML was built with libyaml, else the pure-Python ``SafeLoader`` /
``SafeDumper``. Both emit the same text and load the same documents, with
two known exceptions: a double-quoted surrogate escape such as ``"\\ud800"``
loads only under pure Python, and nesting past Python's recursion limit
loads only under libyaml.

libyaml composes nested nodes by recursion in C, with no depth check: about
25,000 nested ``[`` overflow an 8 MiB stack and kill the process. Callers
that load untrusted text bound its length first (see
``playbook.MAX_PROPOSAL_CHARS``); nesting depth is at most the length.
"""

from __future__ import annotations

import yaml

if yaml.__with_libyaml__:
    Loader, Dumper = yaml.CSafeLoader, yaml.CSafeDumper
else:
    Loader, Dumper = yaml.SafeLoader, yaml.SafeDumper


def load(text: str) -> object:
    """Load one YAML document with the safe tag set."""
    return yaml.load(text, Loader=Loader)


def dump(doc: object) -> str:
    """Emit ``doc`` as block YAML in insertion order, like ``yaml.safe_dump(sort_keys=False)``."""
    return yaml.dump(doc, Dumper=Dumper, sort_keys=False)
