"""The state law is resolved in one place, and the public surface has
callers.

Every solver reads a channel through `channels.state_law`, so the
channel classes are named only where they are defined and where the
config builds them.  Every public name is used by the library or the
benchmark, or is a quantity of the paper kept for its own sake.
"""

import ast
import inspect
import re
import types
from pathlib import Path

import chancap

SRC = Path(chancap.__file__).parent
PERFBENCH = SRC.parents[1] / "perfbench"
LAW_OWNERS = {"channels.py", "config.py"}
LAW_CLASSES = {"StateLaw", "ContinuousBscComposite", "DiscreteComposite", "GilbertElliott"}

# Public names no library module or benchmark uses, kept because each is
# a quantity or operation of the paper.
PAPER_API = {
    "sample_state": "draws the state S that the composite channel holds for a block",
    "transmit": "one block through the component channel of a realized state",
    "discrete_expected_rate": "expected rate of a given layered code; the optimizer tests' oracle",
}

# Every defaulted parameter of a public callable, with why it is an
# option.  A new option goes here, with its reason, or is not added.
KNOBS = {
    "SimResult.per_state_rates": "present only for sweeps that report per-state rates",
    "SimResult.ml_error_rate": "present only when the ML oracle ran",
    "SimResult.ml_dominance_violations": "present only when the ML oracle ran",
    "simulate_outage_code_sweep.epsilon": "the decoder's information-density threshold slack",
    "simulate_outage_code_sweep.seed": "master seed of the Monte Carlo stream",
    "simulate_outage_code_sweep.ml_oracle": "opt-in brute-force ML cross-check of the threshold decoder",
    "simulate_uncoded_bec.seed": "master seed of the Monte Carlo stream",
}


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


def test_states_are_drawn_only_through_the_state_law():
    # StateLaw.sample and StateLaw.split are the one place that draws
    # atoms from their masses, and the decoder sweep draws through them
    # without knowing which law it holds.
    for name, tree in _modules():
        if name == "channels.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) in ("choice", "multinomial"):
                read = {n for arg in (*node.args, *node.keywords) for n in _names(arg)}
                assert "mass" not in read, (name, node.lineno)
    tree = dict(_modules())["simulate.py"]
    imported = {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    assert not (set(_names(tree)) | imported) & LAW_CLASSES


def test_every_public_name_has_a_caller():
    used = set()
    for name, tree in _modules():
        if name != "__init__.py":
            used |= set(_names(tree))
    bench = " ".join(path.read_text() for path in sorted(PERFBENCH.glob("*.py")))
    unused = [
        name for name in chancap.__all__
        if name != "__version__"
        and not isinstance(getattr(chancap, name), types.ModuleType)
        and name not in used
        and name not in PAPER_API
        and not re.search(rf"\b{name}\b", bench)
    ]
    assert unused == []


def test_no_unused_imports():
    # The package's __init__ imports names only to re-export them.
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted(Path(__file__).parent.glob("*.py"))
    unused = []
    for path in paths:
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        unused.append(f"{path.name}:{node.lineno} {bound}")
    assert unused == []


def _public_callables():
    for name in chancap.__all__:
        obj = getattr(chancap, name)
        # Exception classes take the builtin's arguments and have no
        # signature to read.
        if isinstance(obj, types.ModuleType) or not callable(obj) or obj is chancap.SolverError:
            continue
        yield name, obj
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and (inspect.isfunction(member) or isinstance(member, classmethod)):
                    yield f"{name}.{attr}", getattr(obj, attr)


def test_public_knob_inventory():
    knobs = {
        f"{name}.{param.name}"
        for name, obj in _public_callables()
        for param in inspect.signature(obj).parameters.values()
        if param.default is not inspect.Parameter.empty
    }
    assert knobs == set(KNOBS)
