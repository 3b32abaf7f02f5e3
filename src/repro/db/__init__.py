"""``repro.db``: crash-safe persistence for campaign state.

Three layers, each usable on its own:

* :mod:`repro.db.io` — the atomic-write primitives (temp file + fsync +
  rename) every persistent artifact in the tree goes through,
* :mod:`repro.db.journal` — CRC-framed append-only records with a
  salvaging reader that never raises on corrupt input,
* :mod:`repro.db.store` — the :class:`CampaignStore`, whose one journal
  under a state directory is the whole durable campaign, with
  quarantine for anything that fails verification.
"""

from repro.db.io import (  # noqa: F401 (re-exported surface)
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
    fsync_directory,
)
from repro.db.journal import (  # noqa: F401
    JOURNAL_SCHEMA_MAJOR,
    JournalRecord,
    JournalScan,
    JournalWriter,
    decode_record,
    encode_record,
    read_journal,
    scan_journal,
)
from repro.db.store import (  # noqa: F401
    CORRUPT_DIR,
    JOURNAL_FILE,
    CampaignStore,
)
