"""The one place remlab picks its YAML implementation: PyYAML's libyaml
classes, ``CSafeLoader`` and ``CSafeDumper``. remlab requires PyYAML built
with libyaml, and this module refuses to import without it.

libyaml composes nested nodes by recursion in C, with no depth check: about
25,000 nested ``[`` overflow an 8 MiB stack and kill the process. Callers
that load untrusted text bound its length first (see
``playbook.MAX_PROPOSAL_CHARS``); nesting depth is at most the length.
"""

from __future__ import annotations

import yaml

if not yaml.__with_libyaml__:
    raise ImportError("remlab requires PyYAML built with libyaml (yaml.__with_libyaml__ is False)")
Loader, Dumper = yaml.CSafeLoader, yaml.CSafeDumper


def load(text: str) -> object:
    """Load one YAML document with the safe tag set."""
    return yaml.load(text, Loader=Loader)


def dump(doc: object) -> str:
    """Emit ``doc`` as block YAML in insertion order, like ``yaml.safe_dump(sort_keys=False)``."""
    return yaml.dump(doc, Dumper=Dumper, sort_keys=False)
