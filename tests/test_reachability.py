"""Every function in ``src/ctrlpinn`` is reached by a command.

The four commands run on the three shipped configs under a trace that
records each package function that executes a body line, in every thread.
The package is imported afresh under the trace, so what runs at import
counts whatever other tests imported before.  Each function that ``ast``
finds in the package must be among them, apart from the allowlist below.
"""

import ast
import importlib
import sys
import threading
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "ctrlpinn"

# Functions no successful run of a shipped config enters.
ALLOWED = {
    # exception constructors: they run when a check fails
    "autodiff.EvaluationError.__init__",
    "config.ConfigError.__init__",
    "trainer.NonFiniteGradientError.__init__",
    "validators.StabilityError.__init__",
    # error handlers of validate and export
    "cli._unwritable",
    "cli._overflowed",
    # the resume path (a command for it is a roadmap item)
    "trainer.resume",
    "trainer.load_checkpoint",
    "trainer._rng_state_from_json",
    "trainer._moment_from_json",
}


def _raise_only(node):
    """A hook whose body, docstring aside, is one ``raise``."""
    body = node.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    return len(body) == 1 and isinstance(body[0], ast.Raise)


def _functions():
    """``{(path, co_firstlineno, name): qualified name}`` of every function
    in the package, keyed as the trace sees its code object."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}.{child.name}"
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                if qualname not in ALLOWED and not _raise_only(child):
                    found[(str(path), first, child.name)] = qualname
                visit(child, path, qualname)
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}.{child.name}")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path, path.stem)
    return found


def _package_modules():
    return [name for name in sys.modules if name == "ctrlpinn" or name.startswith("ctrlpinn.")]


def _run_commands(cli, tmp_path):
    """Every command on every shipped config, as a user would run them."""
    for config in sorted((REPO / "configs").glob("*.cfg")):
        run = str(tmp_path / config.stem)
        assert cli.main(["train", "--config", str(config), "--epochs", "2", "--out", run]) == cli.EXIT_OK
        assert cli.main(["validate", run, "--resolution", "21"]) == cli.EXIT_OK
        # export covers time-only and 1-D spatial problems and refuses the rest
        expected = cli.EXIT_CONFIG if config.stem == "predator_prey" else cli.EXIT_OK
        assert cli.main(["export", run, "--resolution", "21"]) == expected
        assert cli.main(["plot", run]) == cli.EXIT_OK


def test_every_function_in_src_is_reached_by_a_command(tmp_path, capsys):
    package = str(PACKAGE)
    entered = set()

    def first_line(frame, event, arg):
        if event == "line":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno, code.co_name))
            return None
        return first_line

    def on_call(frame, event, arg):
        code = frame.f_code
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        if code.co_filename.startswith(package) and key not in entered:
            return first_line
        return None

    imported = {name: sys.modules.pop(name) for name in _package_modules()}
    previous, previous_threads = sys.gettrace(), threading.gettrace()
    sys.settrace(on_call)
    threading.settrace(on_call)
    try:
        _run_commands(importlib.import_module("ctrlpinn.cli"), tmp_path)
    finally:
        sys.settrace(previous)
        threading.settrace(previous_threads)
        for name in _package_modules():
            del sys.modules[name]
        sys.modules.update(imported)
    capsys.readouterr()

    functions = _functions()
    missed = sorted(name for key, name in functions.items() if key not in entered)
    assert not missed, f"no command reaches: {', '.join(missed)}"


def test_the_allowlist_names_functions_that_exist():
    names = set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                names |= {f"{path.stem}.{node.name}.{f.name}" for f in node.body if isinstance(f, ast.FunctionDef)}
        names |= {f"{path.stem}.{f.name}" for f in tree.body if isinstance(f, ast.FunctionDef)}
    assert ALLOWED <= names, sorted(ALLOWED - names)
