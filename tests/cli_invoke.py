"""Run the exceis command line in process: its exit status, what it wrote to
stdout and to stderr, and the SystemExit that ended it, if any."""

import contextlib
import io
from typing import NamedTuple

from exceis.cli import main


class Result(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str
    exception: SystemExit | None

    @property
    def output(self) -> str:
        """stdout, then stderr: a query writes its report or its error."""
        return self.stdout + self.stderr


def invoke(*args: str) -> Result:
    """main(args) as a process would run it; any exception but SystemExit
    propagates."""
    out, err = io.StringIO(), io.StringIO()
    stop = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(list(args))
        except SystemExit as exc:
            stop = exc
    code = 0 if stop is None or stop.code is None else stop.code
    return Result(code, out.getvalue(), err.getvalue(), stop)
