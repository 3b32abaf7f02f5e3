"""EOF404 fixture: a module global mutated from signal context.

``_on_term`` is a signal handler and appends to the module-level
``SEEN`` list.  An append is inside the EOF403 whitelist, so the
handler's effect shape passes; writing module state from signal
context does not.  Exactly one EOF404.
"""

import signal

SEEN = []


def _on_term(signum, frame):
    SEEN.append(signum)


def install():
    signal.signal(signal.SIGTERM, _on_term)
