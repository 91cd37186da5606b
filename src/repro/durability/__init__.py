"""`repro.durability`: checkpointing, backup/restore, and scrubbing.

The mutation layer (PR 7) made the deployment *crash-consistent*: base +
journal = database, with every record fsynced and checksummed.  This
package makes it *operable over time*:

* :func:`checkpoint` / :func:`checkpoint_offline` fold the journal into
  a fresh generation-numbered base database so the journal stays small —
  the atomic rename of the replacement journal is the commit point.
* :func:`create_backup` / :func:`restore_backup` /
  :func:`verify_backup` capture the state that cannot be recomputed —
  the database, or the journal plus its pinned base — into checksummed
  archives and refuse to install anything that fails verification;
  index artifacts are rebuilt, not backed up.
* :class:`Scrubber` continuously re-verifies every file of a live
  deployment in the background and rebuilds a corrupt or off-frame shard
  from the serving index's frame rows and manifest; journal and base
  corruption escalates.
* :func:`verify_deployment` is the offline auditor behind
  ``repro verify``.

None of them owns a check.  Each file has one, next to its format, and
every reader of the file runs it: a journal and the base it pins
(:func:`repro.delta.journal.check_journal`), a shard bundle
(:meth:`ShardManifest.load <repro.shard.manifest.ShardManifest.load>`,
:meth:`~repro.shard.manifest.ShardManifest.check_artifact`), a single
index (the checksum container).  So an open, ``repro verify``, a backup
and the scrubber cannot disagree about a file (docs/recovery.md).
"""

from repro.durability.backup import (
    create_backup,
    restore_backup,
    verify_backup,
    verify_deployment,
)
from repro.durability.checkpoint import (
    base_file_name,
    checkpoint,
    checkpoint_offline,
    resolve_base_path,
)
from repro.durability.errors import (
    BackupError,
    CheckpointError,
    DurabilityError,
    RestoreError,
    ScrubError,
)
from repro.durability.scrub import Scrubber

__all__ = [
    "BackupError",
    "CheckpointError",
    "DurabilityError",
    "RestoreError",
    "ScrubError",
    "Scrubber",
    "base_file_name",
    "checkpoint",
    "checkpoint_offline",
    "create_backup",
    "resolve_base_path",
    "restore_backup",
    "verify_backup",
    "verify_deployment",
]
