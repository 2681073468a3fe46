"""The recorder of ``tests/reach`` sees every kind of function, and each maps to its name;
the check of ``tests/reach/run.py`` holds exactly when the unrun functions are the table.

A synthetic module runs in a subprocess with ``tests/reach/sitecustomize.py`` recording.
Its records must map to exactly the functions it ran: a decorated function (whose code
starts at its decorator, not at ``def``), a property, an ``async`` method, a nested
function and a function that only a ``threading.Thread`` runs — and not its unrun method.
The check runs on a synthetic module and table, without tracing anything.
"""

import ast
import importlib.util
import os
import subprocess
import sys
import textwrap
from pathlib import Path

REACH = Path(__file__).resolve().parent / "reach"

SYNTHETIC = textwrap.dedent(
    """
    import asyncio
    import functools
    import threading


    def logged(function):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            return function(*args, **kwargs)

        return wrapper


    @logged
    def decorated():
        return 1


    class Box:
        @property
        def size(self):
            return 2

        async def fetch(self):
            return 3

        def unused(self):
            return 4


    def outer():
        def inner():
            return 5

        return inner()


    def in_thread():
        return 6


    def main():
        decorated()
        assert Box().size == 2
        asyncio.run(Box().fetch())
        outer()
        thread = threading.Thread(target=in_thread)
        thread.start()
        thread.join()


    main()
    """
)


def _reach_run():
    spec = importlib.util.spec_from_file_location("reach_run", REACH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(tmp_path, sources, record=True):
    """Write ``sources`` (file name -> code) under a root, run ``main.py`` with the recorder on
    and return the root and the directory of records."""
    root, out = tmp_path / "root", tmp_path / "out"
    root.mkdir()
    out.mkdir()
    for name, source in sources.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(textwrap.dedent(source))
    env = {**os.environ, "PYTHONPATH": str(REACH), "REACH_ROOT": str(root)}
    env.pop("REACH_OUT", None)
    if record:
        env["REACH_OUT"] = str(out)
    subprocess.run([sys.executable, str(root / "main.py")], env=env, check=True, timeout=60)
    return root, out


def test_every_kind_of_function_maps_to_its_qualified_name(tmp_path):
    root, out = _record(tmp_path, {"main.py": SYNTHETIC})

    ran = _reach_run().entered(out, root, {"main": ast.parse(SYNTHETIC)})

    names = "logged logged.wrapper decorated Box.size Box.fetch outer outer.inner in_thread main"
    assert ran == {f"main.{name}" for name in names.split()}


def test_the_recorder_is_inert_without_an_output_directory(tmp_path):
    main = """
    import pathlib
    import sys

    pathlib.Path(sys.argv[0]).with_name("profile.txt").write_text(repr(sys.getprofile()))
    """
    root, out = _record(tmp_path, {"main.py": main}, record=False)

    assert (root / "profile.txt").read_text() == "None"
    assert not list(out.iterdir())


def test_a_subprocess_writes_its_own_record(tmp_path):
    main = """
    import subprocess
    import sys
    from pathlib import Path


    def spawn():
        child = Path(__file__).with_name("child.py")
        subprocess.run([sys.executable, str(child)], check=True)


    spawn()
    """
    child = """
    def work():
        return 1


    work()
    """
    root, out = _record(tmp_path, {"main.py": main, "child.py": child})

    modules = {"main": ast.parse(textwrap.dedent(main)), "child": ast.parse(textwrap.dedent(child))}
    assert len(list(out.glob("*.txt"))) == 2
    assert _reach_run().entered(out, root, modules) == {"main.spawn", "child.work"}


def test_code_outside_the_root_is_not_recorded(tmp_path):
    # A sibling whose name extends the root's is outside it too.
    beside = tmp_path / "root-beside"
    beside.mkdir()
    (beside / "helper.py").write_text("def helper():\n    return 1\n")
    main = f"""
    import sys

    sys.path.insert(0, {str(beside)!r})
    import helper

    helper.helper()
    """
    root, out = _record(tmp_path, {"main.py": main})

    lines = [line for path in out.glob("*.txt") for line in path.read_text().splitlines()]
    assert {line.rsplit(":", 1)[0] for line in lines} == {str(root / "main.py")}


# -- the check ------------------------------------------------------------------------------

LIVE = ast.parse(
    textwrap.dedent(
        """
        import abc
        from abc import ABC, abstractmethod


        class Base(ABC):
            @abstractmethod
            def step(self): ...

            @abc.abstractmethod
            def name(self): ...


        class Engine(Base):
            def step(self):
                return 1

            def name(self):
                return "engine"

            def reset(self):
                return 0


        class Oracle:
            def run(self):
                return 2

            def verify(self):
                return 3


        def start():
            return Engine().step()


        LIMIT = 8
        """
    )
)
MODULES = {"pkg.live": LIVE}
RAN = {"pkg.live.Engine.step", "pkg.live.Engine.name", "pkg.live.start"}
TABLE = {"pkg.live.Engine.reset": "test fixture", "pkg.live.Oracle": "oracle of the tests"}


def test_the_check_holds_when_the_table_is_what_nothing_runs():
    assert _reach_run().check(RAN, MODULES, TABLE) == []


def test_an_unrun_public_method_missing_from_the_table_fails_the_check():
    table = {name: why for name, why in TABLE.items() if name != "pkg.live.Engine.reset"}

    problems = _reach_run().check(RAN, MODULES, table)

    assert problems == [
        "no entry point runs it and REFERENCES does not list it: pkg.live.Engine.reset"
    ]


def test_an_entry_for_a_function_that_ran_fails_the_check():
    problems = _reach_run().check(RAN, MODULES, {**TABLE, "pkg.live.start": "an oracle"})

    assert problems == [
        "listed but an entry point runs pkg.live.start (delete the entry pkg.live.start)"
    ]


def test_an_entry_without_a_reason_fails_the_check():
    problems = _reach_run().check(RAN, MODULES, {**TABLE, "pkg.live.Oracle": "  "})

    assert problems == ["no reason given: pkg.live.Oracle"]


def test_an_abstract_method_needs_no_entry():
    source = ast.unparse(LIVE)
    concrete = ast.parse(source.replace("@abc.abstractmethod", "").replace("@abstractmethod", ""))

    problems = _reach_run().check(RAN, {"pkg.live": concrete}, TABLE)

    assert problems == [
        f"no entry point runs it and REFERENCES does not list it: pkg.live.Base.{name}"
        for name in ("name", "step")
    ]


def test_a_class_entry_covers_every_method_and_goes_when_one_runs():
    problems = _reach_run().check(RAN | {"pkg.live.Oracle.verify"}, MODULES, TABLE)

    assert problems == [
        "listed but an entry point runs pkg.live.Oracle.verify (delete the entry pkg.live.Oracle)"
    ]


def test_an_entry_that_covers_no_function_fails_the_check():
    problems = _reach_run().check(RAN, MODULES, {**TABLE, "pkg.live.LIMIT": "read by a test"})

    assert problems == ["listed but covers no public function: pkg.live.LIMIT"]
