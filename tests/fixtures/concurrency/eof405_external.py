"""EOF405 fixture: an ``@atomic`` list cleared from outside its class.

``Pending.items`` declares ``GUARDED_BY @atomic``, yet ``drain``
clears it in place through a typed parameter — a mutation, not a whole
constant store.  Exactly one EOF405.
"""


class Pending:
    GUARDED_BY = {"items": "@atomic"}

    def __init__(self):
        self.items = []


def drain(pending: Pending):
    pending.items.clear()
