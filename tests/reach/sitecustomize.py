"""Append ``file:first line`` of each code object under ``REACH_ROOT`` (default ``src/repro``)
that any thread enters to ``REACH_OUT/<pid>.txt`` at exit; inert without ``REACH_OUT``.
Subprocesses inherit both variables and ``PYTHONPATH``; ``tests/reach/run.py`` reads the files."""

import atexit
import os
import sys
import threading

OUT = os.environ.get("REACH_OUT")
ROOT = os.path.abspath(os.environ.get("REACH_ROOT", f"{__file__}/../../../src/repro")) + os.sep
entered = {}


def _profile(frame, event, _arg):
    if event == "call":
        entered.setdefault(id(frame.f_code), frame.f_code)


def _write():
    codes = [code for code in list(entered.values()) if code.co_filename.startswith(ROOT)]
    with open(os.path.join(OUT, f"{os.getpid()}.txt"), "a") as out:
        out.writelines(f"{code.co_filename}:{code.co_firstlineno}\n" for code in codes)


if OUT:
    atexit.register(_write)
    threading.setprofile(_profile)
    sys.setprofile(_profile)
