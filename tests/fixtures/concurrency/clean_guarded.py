"""Clean fixture: every guarded write is disciplined.

The ``@atomic`` stop flag only ever receives whole constant stores —
from the signal handler and from outside its class alike; the ``@main``
tally is bumped on the main thread only, never from signal context.
Zero diagnostics.
"""

import signal


class Run:
    GUARDED_BY = {"stopping": "@atomic", "tally": "@main"}

    def __init__(self):
        self.stopping = False
        self.tally = 0

    def stop(self):
        self.stopping = True

    def step(self):
        self.tally += 1


RUN = Run()


def _on_int(signum, frame):
    RUN.stop()


def main():
    RUN.stopping = False
    signal.signal(signal.SIGINT, _on_int)
    while not RUN.stopping:
        RUN.step()
