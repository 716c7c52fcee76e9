"""A Shore-MT-shaped mini storage engine: slotted pages, heaps, B+-trees,
buffer pool with WAL discipline, 2PL locking, transactions and background
db-writers with global vs flash-aware (region) assignment."""

from .btree import BTreeIndex, DuplicateKeyError
from .buffer import BufferPool, Frame
from .database import Database
from .flusher import DbWriterPool
from .heap import RID, HeapFile, pack_rid, unpack_rid
from .latches import RWLock
from .locks import LockManager, LockMode, TxnAborted
from .page import BTreeNodePage, PageFormatError, SlottedPage, decode_page
from .recovery import ColdStart, RecoveryReport, cold_start, recover_database
from .storage import BlockDeviceAdapter, RAMStorageAdapter, StorageAdapter
from .temp import TempArea
from .txn import Transaction, TransactionManager
from .wal import FlashLogVolume, WALog, WALRecord

__all__ = [
    "BTreeIndex",
    "DuplicateKeyError",
    "BufferPool",
    "Frame",
    "Database",
    "DbWriterPool",
    "RID",
    "HeapFile",
    "pack_rid",
    "unpack_rid",
    "RWLock",
    "LockManager",
    "LockMode",
    "TxnAborted",
    "BTreeNodePage",
    "PageFormatError",
    "SlottedPage",
    "decode_page",
    "ColdStart",
    "RecoveryReport",
    "cold_start",
    "recover_database",
    "BlockDeviceAdapter",
    "RAMStorageAdapter",
    "StorageAdapter",
    "TempArea",
    "Transaction",
    "TransactionManager",
    "FlashLogVolume",
    "WALog",
    "WALRecord",
]
