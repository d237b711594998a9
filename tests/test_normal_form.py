"""The state law is resolved in one place.

Every solver reads a channel through `channels.state_law`, so the
channel classes are named only where they are defined and where the
config builds them.
"""

import ast
from pathlib import Path

import chancap

SRC = Path(chancap.__file__).parent
LAW_OWNERS = {"channels.py", "config.py"}


def _modules():
    for path in sorted(SRC.glob("*.py")):
        yield path.name, ast.parse(path.read_text())


def _names(node):
    """Identifiers a node mentions, as plain names or attributes."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_gilbert_elliott_named_only_by_its_law_owners():
    for name, tree in _modules():
        used = set(_names(tree))
        if name != "__init__.py":  # the package re-exports the public name
            used |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
        if name not in LAW_OWNERS:
            assert "GilbertElliott" not in used, name


def test_no_isinstance_ladder_on_channel_classes_outside_channels():
    for name, tree in _modules():
        if name == "channels.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" and len(node.args) == 2:
                named = set(_names(node.args[1]))
                assert not named & {"DiscreteComposite", "GilbertElliott"}, (name, node.lineno)
