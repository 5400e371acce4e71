"""Shared test helpers."""

import os
import subprocess
import sys

import pytest

import uafkit as uk


_MEMORY_PROBE = """
import os
import resource
# A process starts with the peak resident size of the one that forked it, here
# the test runner's, which would hide any smaller peak; a child forked from
# this small process starts from its own.
pid = os.fork()
if pid:
    os._exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
import numpy as np
import uafkit as uk
base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
p, t = uk.preset(uk.TANH), uk.target(uk.TANH)
for statement in {statements!r}:
    exec(statement)
    print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base) / 1024)
"""


@pytest.fixture
def peak_growth_mb():
    """A function of a list of statements that returns the growth of the peak
    resident size, in MB, after each of them. They run in a fresh process,
    after `import numpy as np, uafkit as uk` and with p and t the tanh preset
    and target, so that it measures those statements alone.

    The statements of one call share that process, because a later one is
    read against what an earlier one built: a step's growth is the peak past
    the net that the same process made. Each call, and so each parametrized
    case, gets its own process: a step measured after another one reads a
    few bytes more, from the allocator's reuse of the first step's freed
    arrays."""
    pytest.importorskip("resource")

    def measure(statements):
        paths = [os.path.dirname(os.path.dirname(uk.__file__)), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        probe = _MEMORY_PROBE.format(statements=statements)
        out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                             capture_output=True, text=True).stdout.split()
        assert len(out) == len(statements)
        return list(map(float, out))

    return measure
