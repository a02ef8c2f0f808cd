"""Reach-map hook: record the first call of every code object in ``repro``.

Python imports ``sitecustomize`` at start-up from the first directory on
``sys.path`` that has one.  ``tools/reach.py`` puts this directory first on
each driver's ``PYTHONPATH`` and arms the hook by setting ``REACH_OUT`` to a
directory; without it, importing this module does nothing.

Armed, it installs one global ``sys.settrace`` function (also for threads
started later).  Python calls it once per function call; it returns ``None``,
so no line events are traced.  The first call of each code object whose file
lies in a ``repro`` package directory appends ``<file>\\t<qualname>`` to
``REACH_OUT/reach-<pid>.txt`` with one unbuffered ``O_APPEND`` write, so a
forked child (which shares the descriptor and exits without running
``atexit``) loses nothing.  Children started through ``subprocess`` with an
explicit ``env=`` are armed too.
"""

import os
import sys
import threading

_OUT = os.environ.get("REACH_OUT")
_SITE = os.path.dirname(os.path.abspath(__file__))
_MARKER = f"{os.sep}repro{os.sep}"


def _arm() -> None:
    fd = os.open(
        os.path.join(_OUT, f"reach-{os.getpid()}.txt"),
        os.O_WRONLY | os.O_CREAT | os.O_APPEND,
        0o644,
    )
    seen: dict[int, object] = {}  # id -> code; holding the code pins its id

    def on_call(frame, event, arg):
        code = frame.f_code
        if id(code) not in seen:
            seen[id(code)] = code
            if _MARKER in code.co_filename:
                os.write(fd, f"{code.co_filename}\t{code.co_qualname}\n".encode())
        return None

    sys.settrace(on_call)
    threading.settrace(on_call)
    _follow_children()


def _follow_children() -> None:
    """Arm Python children whose explicit ``env=`` would drop the hook."""
    import subprocess

    popen_init = subprocess.Popen.__init__

    def armed_init(self, *args, env=None, **kwargs):
        if env is not None and "REACH_OUT" not in env:
            path = os.pathsep.join(filter(None, (_SITE, env.get("PYTHONPATH"))))
            env = {**env, "REACH_OUT": _OUT, "PYTHONPATH": path}
        popen_init(self, *args, env=env, **kwargs)

    subprocess.Popen.__init__ = armed_init


if _OUT:
    _arm()
