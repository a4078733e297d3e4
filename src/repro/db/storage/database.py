"""Database: table registry + lock manager + WAL + transaction factory."""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.db.storage.errors import NoSuchTableError, SchemaError
from repro.db.storage.locks import LockManager
from repro.db.storage.log import (
    Checkpoint, DEFAULT_GROUP_COMMIT_SIZE, LogManager, LogRecord, replay,
)
from repro.db.storage.table import Table
from repro.db.storage.transaction import Transaction


class Database:
    """An in-memory database instance.

    >>> db = Database()
    >>> _ = db.create_table("t", ("k", "v"), ("k",))
    >>> with db.transaction() as txn:
    ...     _ = txn.insert("t", {"k": 1, "v": "x"})
    >>> db.table("t").get((1,))["v"]
    'x'
    """

    def __init__(self, group_commit_size: int = DEFAULT_GROUP_COMMIT_SIZE):
        self._tables: Dict[str, Table] = {}
        self.locks = LockManager()
        self.log = LogManager(group_commit_size)
        self._next_txn_id = 1

    # ------------------------------------------------------------------
    # Schema
    # ------------------------------------------------------------------
    def create_table(self, name: str, columns: Sequence[str],
                     primary_key: Sequence[str]) -> Table:
        if name in self._tables:
            raise SchemaError(f"table {name} already exists")
        table = Table(name, columns, primary_key)
        self._tables[name] = table
        return table

    def table(self, name: str) -> Table:
        table = self._tables.get(name)
        if table is None:
            raise NoSuchTableError(f"no table named {name}")
        return table

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------
    def transaction(self) -> Transaction:
        """Begin a new transaction (usable as a context manager)."""
        txn = Transaction(self, self._next_txn_id)
        self._next_txn_id += 1
        return txn

    # ------------------------------------------------------------------
    # Checkpointing / recovery
    # ------------------------------------------------------------------
    def take_checkpoint(self, truncate: bool = True) -> Checkpoint:
        """Snapshot all tables at the current durable log position.

        Forces the log first (so the checkpoint covers everything
        committed up to now), snapshots table images, and --- with
        ``truncate`` --- cuts the covered durable prefix, bounding
        recovery to the checkpoint plus the log tail.  A quiescent
        point is assumed (no transaction mid-flight), which the
        single-threaded callers guarantee.
        """
        self.log.force()
        tables = {name: {table.pk_of(row): row for row in table.scan_all()}
                  for name, table in self._tables.items()}
        checkpoint = Checkpoint(self.log.last_durable_lsn, tables)
        if truncate:
            self.log.truncate_through(checkpoint.last_lsn)
        return checkpoint

    def recover_from(self, records: List[LogRecord],
                     checkpoint: Checkpoint = None) -> None:
        """Redo-only recovery: load the durable, committed state.

        Tables must already exist with their schemas (as after restart
        with the catalog available); their contents are replaced by the
        checkpoint image (if any) plus the redo of committed records
        beyond it.
        """
        base = checkpoint.tables if checkpoint is not None else None
        tail = records
        if checkpoint is not None:
            tail = [r for r in records if r.lsn > checkpoint.last_lsn]
        recovered = replay(tail, base=base)
        for name, rows in recovered.items():
            table = self.table(name)
            for pk in [table.pk_of(r) for r in table.scan_all()]:
                table.delete(pk)
            for row in rows.values():
                table.insert(row)

    # ------------------------------------------------------------------
    # Integrity checks (used by tests and examples)
    # ------------------------------------------------------------------
    def checkpoint_rowcounts(self) -> Dict[str, int]:
        """Snapshot of per-table row counts."""
        return {name: len(table) for name, table in self._tables.items()}
