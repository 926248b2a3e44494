"""The package holds only code that a command or the public API reaches."""

import ast
import pathlib

import ellstat

SRC = pathlib.Path(ellstat.__file__).parent
SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

_DEFS = (ast.FunctionDef, ast.ClassDef)


def _reads(nodes) -> set[str]:
    """Every name and attribute that the nodes read."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for root in nodes
        for node in ast.walk(root)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def _span_targets() -> list[tuple[str, str]]:
    """perfbench's ``spans.TARGETS`` as (module, name), read without importing it."""
    (targets,) = [
        ast.literal_eval(node.value)
        for node in ast.parse(SPANS.read_text()).body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]
    ]
    return [tuple(target.rsplit(".", 1)) for target in targets]


def unreached(src: pathlib.Path = SRC) -> list[tuple[str, str]]:
    """Top-level defs and classes of the package that no root reaches.

    The call graph has an edge from a top-level def or class to every name it
    reads: to the module's own def of that name, or else to every other
    module's (an import or a module attribute).  The roots are ``cli.main``
    and the ``cmd_*`` functions, module-level statements and decorators,
    the names in ``__all__`` and perfbench's span targets.
    """
    edges: dict[tuple[str, str], set[str]] = {}
    module_reads: dict[str, set[str]] = {}
    api: list[str] = []
    for path in sorted(src.glob("*.py")):
        module = path.stem
        top = ast.parse(path.read_text()).body
        for node in top:
            if isinstance(node, _DEFS):
                edges[module, node.name] = _reads([node])
            elif isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]:
                api = ast.literal_eval(node.value)
        module_reads[module] = _reads(
            [node for node in top if not isinstance(node, _DEFS)]
            + [d for node in top if isinstance(node, _DEFS) for d in node.decorator_list]
        )

    def resolve(module: str, name: str) -> list[tuple[str, str]]:
        if (module, name) in edges:
            return [(module, name)]
        return [key for key in edges if key[1] == name]

    roots = [("cli", "main")] + [key for key in edges if key[0] == "cli" and key[1].startswith("cmd_")]
    roots += [key for module, names in module_reads.items() for name in names for key in resolve(module, name)]
    roots += [key for name in api for key in resolve("__init__", name)]
    roots += _span_targets()
    seen = set()
    while roots:
        key = roots.pop()
        if key in seen or key not in edges:
            continue
        seen.add(key)
        roots += [target for name in edges[key] for target in resolve(key[0], name)]
    return sorted(set(edges) - seen)


def test_every_function_is_reached_by_a_command_or_the_api():
    assert unreached() == []

