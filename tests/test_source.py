"""Rules the package's source keeps."""

import ast
from pathlib import Path

import tanglegcd

PACKAGE = Path(tanglegcd.__file__).resolve().parent


def test_no_module_checks_an_invariant_with_assert():
    # `python -O` strips assert statements, so an invariant checked by one is
    # not checked at all there; every check raises explicitly instead.
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_module_imports_or_names_argparse():
    # The CLI reads its command line from its own table, so argparse never
    # loads, not even for an error or help.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Import) and any(a.name == "argparse" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "argparse"
        or isinstance(node, ast.Name) and node.id == "argparse"
    ]
    assert found == []


def test_handler_modules_import_their_layers_once():
    # Every subcommand of a handler module runs its family's layers, so the
    # module imports them once, at module scope.  At call time it imports
    # only what a sibling subcommand must not pay for: `enumeration`, which
    # only `enumerate` runs, and `_shadows`, which only `gcd`'s rows use.
    found = set()
    for name in ("_trace_commands", "_tangle_commands"):
        path = PACKAGE / f"{name}.py"
        for function in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found |= {
                    (function.name, alias.name if isinstance(node, ast.Import) else node.module)
                    for node in ast.walk(function)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names
                }
    assert found == {("cmd_enumerate", "enumeration"), ("_step_rows", "_shadows")}
    # No import is hidden behind a TYPE_CHECKING flag either.
    assert not [path.name for path in PACKAGE.glob("*.py")
                if "TYPE_CHECKING" in path.read_text(encoding="utf-8")]


def test_only_the_checked_records_write_an_init_and_only_record_calls_exec():
    # A record without checks gets its __init__ generated from `_fields` by
    # `_record`, the one module that compiles code at run time.
    inits, execs = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(base, ast.Name) and base.id == "Record" for base in node.bases):
                inits |= {node.name for item in node.body
                          if isinstance(item, ast.FunctionDef) and item.name == "__init__"}
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "exec"):
                execs.add(path.name)
    assert inits == {"ExtendedRational", "EuclidStep", "EuclidTrace"}
    assert execs == {"_record.py"}


def test_only_euclid_writes_a_trace_s_slots():
    # Every other module builds a trace through `euclid._trace` or the
    # checked constructor, so only `euclid` knows which slots a trace has.
    found = [
        f"{path.name}:{node.lineno} {alias.name}"
        for path in sorted(PACKAGE.glob("*.py")) if path.name != "euclid.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.ImportFrom) and node.module in ("euclid", "tanglegcd.euclid")
        for alias in node.names
        if alias.name == "_new" or alias.name.startswith("_set_")
    ]
    assert found == []


def test_only_the_chain_loops_call_divmod():
    # `_divisions` signs a chain's divisions and `_regular` keeps the regular
    # chain's partial quotients, for every count and certificate; the witness
    # walk rebuilds each remainder from its pair, and the two walks of the
    # whole trace tree divide each node they visit.
    found = {
        f"{path.stem}.{function.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for function in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "divmod"
    }
    assert found == {"euclid._divisions", "euclid._regular", "enumeration._generate",
                     "_trace_commands._trace_rows"}
