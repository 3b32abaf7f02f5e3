"""EOF401 fixture: a compound write to an ``@atomic`` flag.

``Stopper.requests`` declares ``GUARDED_BY @atomic`` — only whole
constant stores, which a signal handler can make without tearing
anything — but ``request`` increments it, a read-modify-write.
Exactly one EOF401.
"""


class Stopper:
    GUARDED_BY = {"requests": "@atomic"}

    def __init__(self):
        self.requests = 0

    def request(self):
        self.requests += 1
